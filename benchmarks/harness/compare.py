"""``compare A.json B.json``: did B regress against A?

For every workload x end-to-end metric both files hold: both values, the
relative change (base: A), the bound, and a verdict --

* ``ok``          B is not worse than A by more than the bound (or by less
                  than the metric's absolute floor);
* ``regressed``   it is;
* ``unresolved``  the timed rounds of either run spread (quartile distance
                  over median) wider than the bound, so the difference cannot
                  be told from noise -- unless every round of one side beats
                  every round of the other, which settles it.

Bounds of the metrics every workload reports come from ``BENCHMARK.json``,
those of workload-specific metrics from :data:`spec.SPECIFIC`.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Optional, Tuple

from benchmarks.harness import spec

#: Metrics that are a round's time or a fixed count divided by it: their
#: per-round values follow from ``rounds_wall_s`` in a run's output.
PER_ROUND = ("wall_s", "jobs_per_s", "sim_kwips")


def bounds() -> Dict[str, Tuple[str, float, float]]:
    """Metric -> (better, relative bound, absolute floor)."""
    table = {entry["name"]: (entry["better"], entry["bound"], 0.0)
             for entry in spec.load_benchmark()["end_to_end"]}
    table.update({name: (metric.better, metric.bound, metric.floor)
                  for name, metric in spec.SPECIFIC.items()})
    return table


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (0 for under two values)."""
    if len(values) < 2 or not median(values):
        return 0.0
    low, _, high = quantiles(values, n=4)
    return (high - low) / abs(median(values))


def verdict(better: str, bound: float, floor: float, base: float, new: float,
            base_rounds: Optional[List[float]] = None,
            new_rounds: Optional[List[float]] = None) -> Tuple[float, str]:
    """(relative change with base ``base``, verdict) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new - base)                 # > 0: B is worse
    change = (new - base) / abs(base) if base else (0.0 if new == base else float("inf"))
    regressed = worse_by > bound * abs(base) and worse_by > floor
    noisy = (base_rounds and new_rounds
             and max(spread(base_rounds), spread(new_rounds)) > bound)
    if noisy:
        if all(sign * (n - b) > 0 for n in new_rounds for b in base_rounds):
            return change, "regressed" if regressed else "ok"
        if all(sign * (n - b) < 0 for n in new_rounds for b in base_rounds):
            return change, "ok"
        return change, "unresolved"
    return change, "regressed" if regressed else "ok"


def _per_round(run: Dict[str, object], metric: str) -> Optional[List[float]]:
    walls = run.get("rounds_wall_s")
    if metric not in PER_ROUND or not walls:
        return None
    if metric == "wall_s":
        return walls
    count = run["end_to_end"][metric] * run["end_to_end"]["wall_s"]
    return [count / wall for wall in walls]


def compare(base: Dict[str, object], new: Dict[str, object]) -> List[Dict[str, object]]:
    """One row per workload x end-to-end metric present in both runs."""
    table = bounds()
    rows = []
    for workload, base_run in base["workloads"].items():
        new_run = new["workloads"].get(workload)
        if new_run is None:
            continue
        for metric, base_value in base_run["end_to_end"].items():
            if metric not in table or metric not in new_run["end_to_end"]:
                continue
            better, bound, floor = table[metric]
            change, outcome = verdict(
                better, bound, floor, base_value, new_run["end_to_end"][metric],
                _per_round(base_run, metric), _per_round(new_run, metric))
            rows.append({"workload": workload, "metric": metric, "base": base_value,
                         "new": new_run["end_to_end"][metric], "change": change,
                         "bound": bound, "verdict": outcome})
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    lines = [f"{'workload':18s} {'metric':22s} {'A (base)':>12s} {'B':>12s} "
             f"{'B vs A':>8s} {'bound':>6s}  verdict"]
    for row in rows:
        lines.append(f"{row['workload']:18s} {row['metric']:22s} {row['base']:12.5g} "
                     f"{row['new']:12.5g} {row['change'] * 100:+7.1f}% "
                     f"{row['bound'] * 100:5.0f}%  {row['verdict']}")
    return "\n".join(lines)


def main(base_path: Path, new_path: Path) -> int:
    rows = compare(json.loads(base_path.read_text()), json.loads(new_path.read_text()))
    print(render(rows))
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    unresolved = sum(1 for row in rows if row["verdict"] == "unresolved")
    print(f"{len(rows)} comparison(s): {len(regressed)} regressed, {unresolved} unresolved")
    return 1 if regressed else 0
