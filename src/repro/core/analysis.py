"""Static mapping analysis: what a (gws, lws, machine) triple implies.

Before running anything, the relation between the local work size, the global
work size and the hardware parallelism already determines the execution shape:
how many sequential kernel calls the runtime will issue, how many lanes and
cores stay busy, and which of the paper's three regimes the launch falls
into.  :class:`MappingAnalyzer` computes exactly that -- it is the "runtime
micro-architecture parameter analysis" of the title, in its predictive form,
and the one place the regime is decided.  The launch-shape arithmetic itself
is Eq. 1's closed form in :mod:`repro.core.optimizer`.  The after-the-fact
form is :mod:`repro.trace.analysis`; :mod:`repro.core.advisor` combines this
analysis with the boundedness rule it takes from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.optimizer import (
    kernel_calls_for,
    lane_utilization_for,
    optimal_local_size,
    workgroups_for,
)
from repro.sim.config import ArchConfig


@dataclass(frozen=True)
class MappingAnalysis:
    """Predicted execution shape of one launch mapping."""

    config_name: str
    hardware_parallelism: int
    global_size: int
    local_size: int
    num_workgroups: int
    num_calls: int
    lane_utilization: float       # average over calls
    core_utilization: float       # fraction of cores receiving work (first call)
    regime: str                   # "multiple-calls" | "balanced" | "under-utilised"
    optimal_local_size: int       # what Eq. 1 would pick
    is_optimal: bool


class MappingAnalyzer:
    """Analyses launch mappings against one machine configuration."""

    def __init__(self, config: ArchConfig):
        self.config = config

    # ------------------------------------------------------------------
    def analyze(self, global_size: int, local_size: int) -> MappingAnalysis:
        """Predict the execution shape of launching ``gws`` work-items with ``lws``."""
        if global_size < 1:
            raise ValueError(f"global size must be positive, got {global_size}")
        if local_size < 1:
            raise ValueError(f"local size must be positive, got {local_size}")
        config = self.config
        hp = config.hardware_parallelism
        local_size = min(local_size, global_size)
        workgroups = workgroups_for(global_size, local_size)

        # Cores that receive work in the first (fullest) call.
        first_call_groups = min(workgroups, hp)
        per_core = math.ceil(first_call_groups / config.cores)
        cores_used = min(config.cores, math.ceil(first_call_groups / per_core))

        best = optimal_local_size(global_size, config)
        return MappingAnalysis(
            config_name=config.name,
            hardware_parallelism=hp,
            global_size=global_size,
            local_size=local_size,
            num_workgroups=workgroups,
            num_calls=kernel_calls_for(global_size, local_size, hp),
            lane_utilization=lane_utilization_for(global_size, local_size, hp),
            core_utilization=cores_used / config.cores,
            regime=self._classify(global_size, hp, workgroups),
            optimal_local_size=best,
            is_optimal=(local_size == best),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _classify(global_size: int, hp: int, workgroups: int) -> str:
        if workgroups > hp:
            return "multiple-calls"
        if workgroups == min(hp, global_size):
            return "balanced"
        return "under-utilised"
