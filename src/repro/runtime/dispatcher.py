"""Workgroup dispatch: the Vortex mapping rule.

The Vortex runtime "maps the workload equally across cores; within each core,
the kernel iterations are further distributed among threads first and then
warps" (paper, Section 2).  The dispatcher reproduces that placement and the
paper's three regimes fall out of it:

* more workgroups than hardware lanes -> several sequential *kernel calls*,
  each paying the launch overhead (the ``lws < gws/hp`` regime);
* exactly as many workgroups as lanes -> one fully utilised call
  (``lws = gws/hp``, the paper's optimum);
* fewer workgroups than lanes -> one call that leaves lanes, warps and whole
  cores idle (``lws > gws/hp``).

The resulting :class:`DispatchPlan` lists, for every call, the
:class:`~repro.sim.gpu.WarpLaunch` records the GPU model consumes, plus
utilisation metrics used by the analysis and the reports.  The regime label
itself is decided by :class:`repro.core.analysis.MappingAnalyzer`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.isa.registers import CsrFile
from repro.sim.config import ArchConfig
from repro.sim.gpu import WarpLaunch
from repro.runtime.errors import LaunchError
from repro.runtime.ndrange import NDRange


@dataclass(frozen=True)
class CallPlan:
    """Placement of one kernel call."""

    call_index: int
    workgroups: Tuple[int, ...]          # flattened workgroup ids handled by this call
    launches: Tuple[WarpLaunch, ...]     # one record per spawned warp
    active_lanes: int                    # lanes that received a workgroup
    total_lanes: int                     # lanes available in the machine (hp)

    @property
    def lane_utilization(self) -> float:
        """Fraction of hardware lanes doing useful work during this call."""
        return self.active_lanes / self.total_lanes if self.total_lanes else 0.0

    @property
    def warps_spawned(self) -> int:
        """Number of warps started for this call."""
        return len(self.launches)

    @property
    def cores_used(self) -> int:
        """Number of cores that received at least one warp."""
        return len({launch.core_id for launch in self.launches})


@dataclass(frozen=True)
class DispatchPlan:
    """Complete mapping of a launch: every kernel call and its placement."""

    ndrange: NDRange
    config_name: str
    hardware_parallelism: int
    calls: Tuple[CallPlan, ...]

    @property
    def num_calls(self) -> int:
        """Sequential kernel calls needed for the launch."""
        return len(self.calls)

    @property
    def num_workgroups(self) -> int:
        """Total workgroups across all calls."""
        return self.ndrange.num_workgroups

    @property
    def total_warps_spawned(self) -> int:
        """Warps spawned across every call (drives the spawn overhead)."""
        return sum(call.warps_spawned for call in self.calls)

    @property
    def average_lane_utilization(self) -> float:
        """Mean lane utilisation over all calls."""
        if not self.calls:
            return 0.0
        return sum(call.lane_utilization for call in self.calls) / len(self.calls)


def build_dispatch_plan(ndrange: NDRange, config: ArchConfig,
                        argument_values: Mapping[int, float]) -> DispatchPlan:
    """Place every workgroup of ``ndrange`` on ``config`` following the Vortex rule.

    ``argument_values`` maps argument-CSR slots to their scalar values (buffer
    base addresses and scalar kernel arguments); they are replicated into
    every warp's CSR file.
    """
    gws = ndrange.global_size
    lws = ndrange.local_size
    num_workgroups = ndrange.num_workgroups
    hp = config.hardware_parallelism
    lanes_per_core = config.warps_per_core * config.threads_per_warp
    num_calls = math.ceil(num_workgroups / hp)

    calls: List[CallPlan] = []
    for call_index in range(num_calls):
        first = call_index * hp
        last = min(first + hp, num_workgroups)
        workgroups = tuple(range(first, last))
        count = len(workgroups)

        # Split the call's workgroups equally across cores (Vortex rule).
        per_core = math.ceil(count / config.cores)
        launches: List[WarpLaunch] = []
        active_lanes = 0
        for core_id in range(config.cores):
            core_first = core_id * per_core
            core_last = min(core_first + per_core, count)
            if core_first >= core_last:
                break
            core_workgroups = workgroups[core_first:core_last]
            launches.extend(
                _core_launches(core_id, core_workgroups, ndrange, config,
                               argument_values, call_index, num_workgroups)
            )
            active_lanes += len(core_workgroups)

        calls.append(CallPlan(
            call_index=call_index,
            workgroups=workgroups,
            launches=tuple(launches),
            active_lanes=active_lanes,
            total_lanes=hp,
        ))

    return DispatchPlan(
        ndrange=ndrange,
        config_name=config.name,
        hardware_parallelism=hp,
        calls=tuple(calls),
    )


def _core_launches(core_id: int, workgroups: Sequence[int], ndrange: NDRange,
                   config: ArchConfig, argument_values: Mapping[int, float],
                   call_index: int, num_workgroups: int) -> List[WarpLaunch]:
    """Fill one core's warps: threads first, then warps (the Vortex order)."""
    threads = config.threads_per_warp
    launches: List[WarpLaunch] = []
    for warp_id in range(config.warps_per_core):
        warp_first = warp_id * threads
        if warp_first >= len(workgroups):
            break
        warp_workgroups = workgroups[warp_first:warp_first + threads]
        workgroup_ids = [float(wg) for wg in warp_workgroups]
        local_counts = [float(ndrange.workgroup_size(wg)) for wg in warp_workgroups]
        csr = CsrFile(
            num_threads=threads,
            num_warps=config.warps_per_core,
            num_cores=config.cores,
            warp_id=warp_id,
            core_id=core_id,
            workgroup_ids=workgroup_ids,
            local_counts=local_counts,
            local_size=ndrange.local_size,
            global_size=ndrange.global_size,
            num_groups=num_workgroups,
            call_index=call_index,
            args=dict(argument_values),
        )
        launches.append(WarpLaunch(
            core_id=core_id,
            warp_id=warp_id,
            csr=csr,
            active_lanes=len(warp_workgroups),
        ))
    if len(workgroups) > config.warps_per_core * threads:
        raise LaunchError(
            f"core {core_id} was assigned {len(workgroups)} workgroups but only has "
            f"{config.warps_per_core * threads} lanes"
        )
    return launches
