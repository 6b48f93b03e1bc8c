"""Tuning advisor: turns analysis + measurements into recommendations.

The paper's workflow is: observe execution traces, relate them to the
micro-architecture parameters, and adjust the mapping.  The advisor automates
that loop -- given the machine configuration, the launch geometry and
(optionally) the measured performance counters of a run, it produces a
:class:`TuningReport` containing the recommended ``lws``, the predicted
execution shape, a memory/compute boundedness classification and a list of
human-readable findings.  The boundedness verdict is
:func:`repro.trace.analysis.classify_boundedness`, the same rule the trace
summary and the A2 ablation apply, so one run gets one verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.analysis import MappingAnalysis, MappingAnalyzer
from repro.core.optimizer import optimal_local_size
from repro.sim.config import ArchConfig
from repro.sim.stats import PerfCounters
from repro.trace.analysis import classify_boundedness

#: DRAM queueing share of cycles above which bandwidth is flagged as saturated.
BANDWIDTH_SATURATION_THRESHOLD = 0.25


@dataclass
class TuningReport:
    """Everything the advisor concluded about one launch."""

    config_name: str
    global_size: int
    current_local_size: Optional[int]
    recommended_local_size: int
    analysis_current: Optional[MappingAnalysis]
    analysis_recommended: MappingAnalysis
    boundedness: str = "unknown"          # "memory-bound" | "compute-bound" | "unknown"
    bandwidth_saturated: bool = False
    findings: List[str] = field(default_factory=list)

    @property
    def mapping_change_needed(self) -> bool:
        """True when the measured/declared lws differs from the recommendation."""
        return (self.current_local_size is not None
                and self.current_local_size != self.recommended_local_size)

    def render(self) -> str:
        """Multi-line human readable report."""
        lines = [
            f"Tuning report for {self.config_name} (gws={self.global_size})",
            f"  recommended lws : {self.recommended_local_size}"
            f"  ({self.analysis_recommended.regime}, "
            f"{self.analysis_recommended.num_calls} call(s), "
            f"lanes {self.analysis_recommended.lane_utilization:.1%})",
        ]
        if self.current_local_size is not None and self.analysis_current is not None:
            lines.append(
                f"  current lws     : {self.current_local_size}"
                f"  ({self.analysis_current.regime}, "
                f"{self.analysis_current.num_calls} call(s), "
                f"lanes {self.analysis_current.lane_utilization:.1%})"
            )
        if self.boundedness != "unknown":
            saturated = " (DRAM bandwidth saturated)" if self.bandwidth_saturated else ""
            lines.append(f"  boundedness     : {self.boundedness}{saturated}")
        for finding in self.findings:
            lines.append(f"  - {finding}")
        return "\n".join(lines)


class TuningAdvisor:
    """Produces :class:`TuningReport` objects for launches on one machine."""

    def __init__(self, config: ArchConfig):
        self.config = config
        self._analyzer = MappingAnalyzer(config)

    def advise(self, global_size: int, current_local_size: Optional[int] = None,
               counters: Optional[PerfCounters] = None) -> TuningReport:
        """Analyse a launch and recommend a mapping.

        ``counters`` may come from a previous run with any mapping; they only
        influence the boundedness classification and the findings, not the
        recommended lws (which is the pure Eq.-1 value).
        """
        recommended = optimal_local_size(global_size, self.config)
        analysis_rec = self._analyzer.analyze(global_size, recommended)
        analysis_cur = (self._analyzer.analyze(global_size, current_local_size)
                        if current_local_size is not None else None)

        report = TuningReport(
            config_name=self.config.name,
            global_size=global_size,
            current_local_size=current_local_size,
            recommended_local_size=recommended,
            analysis_current=analysis_cur,
            analysis_recommended=analysis_rec,
        )
        self._add_mapping_findings(report)
        if counters is not None:
            self._add_counter_findings(report, counters)
        return report

    # ------------------------------------------------------------------
    def _add_mapping_findings(self, report: TuningReport) -> None:
        cur = report.analysis_current
        rec = report.analysis_recommended
        if cur is None:
            report.findings.append(
                f"use lws={report.recommended_local_size} to fill the machine in a single call"
            )
            return
        if cur.local_size == rec.local_size:
            report.findings.append("the current mapping already matches Eq. 1")
            return
        if cur.num_calls > rec.num_calls:
            extra = cur.num_calls - rec.num_calls
            report.findings.append(
                f"current lws issues {extra} extra kernel call(s); each pays "
                f"{self.config.kernel_launch_overhead} cycles of launch overhead"
            )
        if cur.lane_utilization < rec.lane_utilization - 1e-9:
            report.findings.append(
                f"current lws leaves {1 - cur.lane_utilization:.1%} of hardware lanes idle "
                f"(recommended mapping leaves {1 - rec.lane_utilization:.1%})"
            )
        if cur.core_utilization < 1.0 and rec.core_utilization > cur.core_utilization:
            report.findings.append(
                f"only {cur.core_utilization:.1%} of cores receive work under the current "
                f"mapping; the recommended lws spreads workgroups over "
                f"{rec.core_utilization:.1%} of cores"
            )

    def _add_counter_findings(self, report: TuningReport, counters: PerfCounters) -> None:
        report.boundedness = classify_boundedness(counters)
        if counters.cycles:
            queue_share = counters.dram_queue_cycles / counters.cycles
            report.bandwidth_saturated = queue_share >= BANDWIDTH_SATURATION_THRESHOLD
        if report.boundedness == "memory-bound":
            report.findings.append(
                "memory traffic outweighs arithmetic in latency-weighted cycles; beyond "
                "the bandwidth saturation point extra parallelism will not reduce latency"
            )
        if report.bandwidth_saturated:
            report.findings.append(
                "DRAM bandwidth is saturated: the mapping is not the bottleneck for this kernel"
            )
        if counters.warp_instructions and counters.lanes_per_instruction < (
                self.config.threads_per_warp * 0.5):
            report.findings.append(
                f"average active lanes per instruction is "
                f"{counters.lanes_per_instruction:.1f} of {self.config.threads_per_warp}; "
                f"control divergence or partial workgroups are wasting SIMT width"
            )
