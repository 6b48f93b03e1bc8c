"""Trace analysis: the measurement side of the paper's methodology.

Given a collected trace (and optionally the performance counters of the same
run), this module extracts the observations the paper bases its mapping
technique on:

* *section wavefronts* -- for every semantic code section, when its
  instructions issue (first/last cycle, issue count); this is the tagged
  wavefront view of Figure 1;
* *issue utilisation* and *SIMT efficiency* -- how much of the machine's issue
  bandwidth and lane width the launch actually used;
* *boundedness classification* -- the compute-bound / memory-bound annotation
  used in the paper's Figure 2.  :func:`classify_boundedness` is the one rule:
  the trace summary, the tuning advisor and the A2 ablation all call it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.sim.stats import PerfCounters
from repro.trace.events import TraceEvent

#: Memory-instruction share of the issue stream above which a run is called
#: memory bound when no latency-weighted counters are available.
MEMORY_BOUND_SHARE = 0.30


@dataclass(frozen=True)
class SectionWavefront:
    """Issue statistics of one semantic code section."""

    section: str
    first_cycle: int
    last_cycle: int
    issues: int
    lane_issues: int

    @property
    def span(self) -> int:
        """Cycles between the first and last issue of the section (inclusive)."""
        return self.last_cycle - self.first_cycle + 1


@dataclass
class TraceAnalysis:
    """Summary of one trace."""

    total_events: int
    first_cycle: int
    last_cycle: int
    warps_seen: int
    cores_seen: int
    issue_utilization: float            # issues / (span * cores)
    simt_efficiency: float              # mean active lanes / max lanes seen
    call_boundaries: List[int] = field(default_factory=list)
    boundedness: str = "unknown"

    @property
    def span(self) -> int:
        """Cycles covered by the trace."""
        return self.last_cycle - self.first_cycle + 1 if self.total_events else 0


# ----------------------------------------------------------------------
def section_wavefronts(events: Sequence[TraceEvent]) -> Dict[str, SectionWavefront]:
    """Aggregate per-section first/last issue cycles and issue counts."""
    first: Dict[str, int] = {}
    last: Dict[str, int] = {}
    issues: Dict[str, int] = defaultdict(int)
    lanes: Dict[str, int] = defaultdict(int)
    for event in events:
        section = event.section
        if section not in first or event.cycle < first[section]:
            first[section] = event.cycle
        if section not in last or event.cycle > last[section]:
            last[section] = event.cycle
        issues[section] += 1
        lanes[section] += event.active_lanes
    return {
        section: SectionWavefront(
            section=section,
            first_cycle=first[section],
            last_cycle=last[section],
            issues=issues[section],
            lane_issues=lanes[section],
        )
        for section in issues
    }


def classify_boundedness(counters: Optional[PerfCounters] = None,
                         events: Optional[Sequence[TraceEvent]] = None) -> str:
    """Classify a run as memory- or compute-bound.

    Counters are preferred (they cover the whole run even when the trace was
    truncated): the run is memory bound when the latency-weighted time spent
    serving cache-line requests exceeds the latency-weighted time spent on
    arithmetic.  A trace alone also works by looking at the opcode mix (memory
    share of the issue stream against ``MEMORY_BOUND_SHARE``).
    """
    if counters is not None and counters.warp_instructions:
        # L1 hits are pipelined and essentially free; what makes a kernel
        # memory bound is the traffic that leaves the core (L2 and DRAM) and
        # any time spent queueing for DRAM bandwidth.
        memory_weight = (1 * (counters.l1_hits or 0)
                         + 20 * (counters.l2_hits or 0)
                         + 120 * (counters.dram_lines or 0)
                         + (counters.dram_queue_cycles or 0))
        compute_weight = (counters.alu_instructions
                          + 4 * counters.fpu_instructions
                          + 16 * counters.sfu_instructions)
        if memory_weight or compute_weight:
            return "memory-bound" if memory_weight >= compute_weight else "compute-bound"
        share = counters.memory_instructions / counters.warp_instructions
        return "memory-bound" if share >= MEMORY_BOUND_SHARE else "compute-bound"
    if events:
        memory = sum(1 for e in events if e.opcode.value in ("load", "store"))
        share = memory / len(events)
        return "memory-bound" if share >= MEMORY_BOUND_SHARE else "compute-bound"
    return "unknown"


def analyze_trace(events: Sequence[TraceEvent], counters: Optional[PerfCounters] = None,
                  threads_per_warp: Optional[int] = None) -> TraceAnalysis:
    """Produce a :class:`TraceAnalysis` from collected events."""
    if not events:
        return TraceAnalysis(total_events=0, first_cycle=0, last_cycle=0, warps_seen=0,
                             cores_seen=0, issue_utilization=0.0, simt_efficiency=0.0)
    first = min(e.cycle for e in events)
    last = max(e.cycle for e in events)
    warps = {(e.core, e.warp) for e in events}
    cores = {e.core for e in events}
    lanes_total = 0
    max_lanes = threads_per_warp or 1
    for event in events:
        lanes_total += event.active_lanes
        if threads_per_warp is None and event.active_lanes > max_lanes:
            max_lanes = event.active_lanes
    span = last - first + 1
    utilization = len(events) / (span * len(cores)) if span else 0.0
    efficiency = (lanes_total / len(events)) / max_lanes if max_lanes else 0.0

    call_starts = sorted({min(e.cycle for e in events if e.call_index == call)
                          for call in {e.call_index for e in events}})
    return TraceAnalysis(
        total_events=len(events),
        first_cycle=first,
        last_cycle=last,
        warps_seen=len(warps),
        cores_seen=len(cores),
        issue_utilization=min(1.0, utilization),
        simt_efficiency=min(1.0, efficiency),
        call_boundaries=call_starts,
        boundedness=classify_boundedness(counters, events),
    )
