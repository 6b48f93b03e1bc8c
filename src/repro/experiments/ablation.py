"""Ablation studies for the design parameters DESIGN.md calls out.

* A1, launch-overhead sensitivity -- the lws=1 penalty is driven by the
  per-call launch overhead; sweeping the overhead quantifies how sensitive the
  paper's Figure-2 left-hand violins are to that micro-architecture parameter.
* A2, boundedness -- classifies each workload as memory- or compute-bound on
  a reference machine, reproducing the annotation above the paper's Figure 2
  and explaining why the memory-bound kernels benefit less from extra
  parallelism.

This module holds the studies' constants and record types; the registered
``ablation`` scenario declares both grids and renders both tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.sim.config import ArchConfig
from repro.trace.analysis import classify_boundedness

#: Launch overheads (cycles) swept by the A1 ablation.
DEFAULT_OVERHEADS = (0, 16, 64, 256, 1024)

#: Reference machine of the A1 overhead sweep.
OVERHEAD_BASE_CONFIG = ArchConfig(cores=4, warps_per_core=4, threads_per_warp=8)
#: Reference machine of the A2 boundedness study.
BOUNDEDNESS_CONFIG = ArchConfig(cores=2, warps_per_core=4, threads_per_warp=8)


@dataclass(frozen=True)
class OverheadSensitivityRecord:
    """One point of the launch-overhead ablation."""

    launch_overhead: int
    naive_cycles: int
    ours_cycles: int

    @property
    def ratio(self) -> float:
        """Slow-down of the naive mapping at this overhead."""
        return self.naive_cycles / self.ours_cycles if self.ours_cycles else 0.0


def overhead_records(overheads: Sequence[int],
                     cycle_pairs: Sequence[Sequence[int]]
                     ) -> List[OverheadSensitivityRecord]:
    """Pair up (naive, ours) cycle counts, one record per swept overhead."""
    return [OverheadSensitivityRecord(launch_overhead=overhead,
                                      naive_cycles=naive, ours_cycles=ours)
            for overhead, (naive, ours) in zip(overheads, cycle_pairs)]


@dataclass(frozen=True)
class BoundednessRecord:
    """Boundedness classification of one workload."""

    problem: str
    category: str
    boundedness: str
    memory_intensity: float
    l1_hit_rate: float
    cycles: int


def boundedness_record_from_job(job) -> BoundednessRecord:
    """Classify one campaign :class:`JobResult`."""
    counters = job.perf_counters()
    return BoundednessRecord(
        problem=job.problem,
        category=job.category,
        boundedness=classify_boundedness(counters),
        memory_intensity=counters.memory_intensity,
        l1_hit_rate=counters.l1_hit_rate,
        cycles=job.cycles,
    )
