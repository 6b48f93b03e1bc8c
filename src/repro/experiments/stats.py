"""Violin-plot statistics.

The paper's Figure 2 summarises each (kernel, baseline) distribution of cycle
ratios with three numbers printed in the data tables: the average ratio, the
worst result (the minimum ratio, i.e. the case where the baseline beats the
proposed mapping the most) and the percentage of configurations where the
baseline was faster ("worse" in the paper's table, counted as ratios below 1).
:func:`ratio_stats` computes exactly those, plus a few extras useful for the
report (median, maximum, quartiles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence


@dataclass(frozen=True)
class RatioStats:
    """Summary of a distribution of ``baseline_cycles / ours_cycles`` ratios."""

    count: int
    average: float
    worst: float            # minimum ratio (paper's "worst")
    best: float             # maximum ratio (largest speed-up over the baseline mapping)
    median: float
    fraction_below_one: float   # paper's "worse" percentage, as a fraction
    geometric_mean: float
    quartile_low: float
    quartile_high: float

    @property
    def percent_below_one(self) -> float:
        """The paper's "worse" number, in percent."""
        return 100.0 * self.fraction_below_one

    def as_dict(self) -> Dict[str, float]:
        """Serialise to plain floats (for JSON reports)."""
        return {
            "count": self.count,
            "average": self.average,
            "worst": self.worst,
            "best": self.best,
            "median": self.median,
            "percent_below_one": self.percent_below_one,
            "geometric_mean": self.geometric_mean,
            "quartile_low": self.quartile_low,
            "quartile_high": self.quartile_high,
        }


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of pre-sorted values."""
    if not sorted_values:
        raise ValueError("cannot take a percentile of an empty sequence")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return sorted_values[low]
    weight = position - low
    return sorted_values[low] * (1 - weight) + sorted_values[high] * weight


def ratio_stats(ratios: Sequence[float]) -> RatioStats:
    """Compute the paper's violin summary for a list of ratios."""
    values = [float(r) for r in ratios]
    if not values:
        raise ValueError("ratio_stats needs at least one ratio")
    if any(v <= 0 for v in values):
        raise ValueError("ratios must be positive")
    ordered = sorted(values)
    count = len(ordered)
    average = sum(ordered) / count
    below = sum(1 for v in ordered if v < 1.0)
    log_sum = sum(math.log(v) for v in ordered)
    return RatioStats(
        count=count,
        average=average,
        worst=ordered[0],
        best=ordered[-1],
        median=_percentile(ordered, 0.5),
        fraction_below_one=below / count,
        geometric_mean=math.exp(log_sum / count),
        quartile_low=_percentile(ordered, 0.25),
        quartile_high=_percentile(ordered, 0.75),
    )
