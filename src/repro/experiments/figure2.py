"""Figure 2: the hardware-configuration sweep.

For every workload and every hardware configuration the launch is executed
three times -- with the naive ``lws=1`` mapping, with the fixed ``lws=32``
mapping and with the paper's hardware-aware mapping -- and the cycle counts
are compared as ratios ``baseline / ours``.  The per-kernel distributions of
those ratios (over all configurations) are the violins of the paper's
Figure 2; their summary statistics (average, worst, %-worse) are the numbers
printed in its data tables.

This module holds the record types and the ratio queries; the registered
``figure2``/``claims`` scenarios declare the grid, and the planner resolves
each grid point's mapping strategy to a concrete lws *before* submission, so
a job's content hash names exactly what is simulated -- two strategies that
pick the same lws on some machine share one simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.stats import RatioStats, ratio_stats

#: The label of the paper's proposed mapping inside result tables.
OURS = "ours"
#: Baseline labels, in the order the paper's violins show them (left, right).
BASELINES = ("lws=1", "lws=32")


@dataclass(frozen=True)
class SweepRecord:
    """One (problem, configuration, strategy) measurement."""

    problem: str
    category: str
    config_name: str
    hardware_parallelism: int
    strategy: str
    local_size: int
    global_size: int
    num_calls: int
    cycles: int
    lane_utilization: float
    elapsed_seconds: float = 0.0


@dataclass
class Figure2Result:
    """All sweep measurements plus the derived per-kernel ratio statistics."""

    records: List[SweepRecord] = field(default_factory=list)

    # ------------------------------------------------------------------ queries
    def problems(self) -> List[str]:
        """Problem names present in the result, in first-seen order."""
        seen: List[str] = []
        for record in self.records:
            if record.problem not in seen:
                seen.append(record.problem)
        return seen

    def cycles(self, problem: str, config_name: str, strategy: str) -> int:
        """Cycle count of one measurement."""
        for record in self.records:
            if (record.problem == problem and record.config_name == config_name
                    and record.strategy == strategy):
                return record.cycles
        raise KeyError(f"no record for {problem}/{config_name}/{strategy}")

    def ratios(self, problem: str, baseline: str) -> List[float]:
        """``baseline / ours`` cycle ratios of ``problem`` over every configuration."""
        ours: Dict[str, int] = {}
        base: Dict[str, int] = {}
        for record in self.records:
            if record.problem != problem:
                continue
            if record.strategy == OURS:
                ours[record.config_name] = record.cycles
            elif record.strategy == baseline:
                base[record.config_name] = record.cycles
        shared = sorted(set(ours) & set(base))
        if not shared:
            raise KeyError(f"no overlapping configurations for {problem}/{baseline}")
        return [base[name] / ours[name] for name in shared]

    def stats(self, problem: str, baseline: str) -> RatioStats:
        """Violin statistics of one (problem, baseline) pair."""
        return ratio_stats(self.ratios(problem, baseline))

    def stats_table(self) -> Dict[str, Dict[str, RatioStats]]:
        """``{problem: {baseline: RatioStats}}`` for every problem in the result."""
        table: Dict[str, Dict[str, RatioStats]] = {}
        for problem in self.problems():
            table[problem] = {}
            for baseline in BASELINES:
                try:
                    table[problem][baseline] = self.stats(problem, baseline)
                except KeyError:
                    continue
        return table

    # ------------------------------------------------------------------ headline claims
    def average_speedup(self, baseline: str, category: Optional[str] = None) -> float:
        """Mean of per-problem average ratios against ``baseline``.

        With ``category="math"`` this reproduces the paper's headline numbers
        (1.3x over lws=1 and 3.7x over lws=32 for the math kernels).
        """
        averages: List[float] = []
        for problem in self.problems():
            if category is not None:
                problem_category = next(r.category for r in self.records
                                        if r.problem == problem)
                if problem_category != category:
                    continue
            try:
                averages.append(self.stats(problem, baseline).average)
            except KeyError:
                continue
        if not averages:
            raise ValueError(f"no problems with category {category!r} and baseline {baseline!r}")
        return sum(averages) / len(averages)

    def worst_case_slowdown(self, baseline: str) -> float:
        """Largest ratio observed anywhere (the paper notes "up to 20x slower")."""
        worst = 0.0
        for problem in self.problems():
            try:
                worst = max(worst, self.stats(problem, baseline).best)
            except KeyError:
                continue
        return worst


# ----------------------------------------------------------------------
def sweep_record_from_job(job, strategy: str) -> SweepRecord:
    """One :class:`SweepRecord` from a campaign :class:`JobResult`."""
    return SweepRecord(
        problem=job.problem,
        category=job.category,
        config_name=job.config_name,
        hardware_parallelism=job.hardware_parallelism,
        strategy=strategy,
        local_size=job.local_size,
        global_size=job.global_size,
        num_calls=job.num_calls,
        cycles=job.cycles,
        lane_utilization=job.lane_utilization,
        elapsed_seconds=job.elapsed_seconds,
    )
