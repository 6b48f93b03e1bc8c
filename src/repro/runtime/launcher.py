"""Kernel launcher: upload arguments, dispatch, simulate, collect results.

``launch_kernel`` is the end-to-end path a host program takes: it validates
the arguments against the kernel signature, moves host arrays to the device,
builds the Vortex-style dispatch plan for the requested (or runtime-chosen)
``lws``, simulates every kernel call, charges the per-call launch overhead and
returns cycles, counters and the output buffers.

For very small ``lws`` the number of sequential calls can reach into the
thousands; since all full-size calls execute the same instruction schedule on
different data, the launcher can optionally simulate only a sample of them and
extrapolate the rest (``call_simulation_limit``).  Experiments use this for the
450-configuration sweep; tests always run exact simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.kernels.kernel import Kernel
from repro.kernels.signature import BufferParam, ScalarParam
from repro.kernels.wrapper import build_workgroup_program
from repro.runtime.buffers import Buffer
from repro.runtime.device import Device
from repro.runtime.dispatcher import DispatchPlan, build_dispatch_plan
from repro.runtime.errors import LaunchError
from repro.runtime.ndrange import NDRange
from repro.sim.stats import PerfCounters


@dataclass
class LaunchResult:
    """Everything measured and produced by one kernel launch."""

    kernel_name: str
    config_name: str
    global_size: int
    local_size: int
    num_workgroups: int
    num_calls: int
    cycles: int                       # total, including launch overheads
    sim_cycles: int                   # simulated compute cycles only
    overhead_cycles: int              # kernel-call + warp-spawn overhead
    counters: PerfCounters
    call_cycles: List[int] = field(default_factory=list)
    outputs: Dict[str, np.ndarray] = field(default_factory=dict)
    buffers: Dict[str, Buffer] = field(default_factory=dict)
    dispatch: Optional[DispatchPlan] = None
    extrapolated: bool = False

    def summary(self) -> str:
        """One-line result summary for reports and examples."""
        return (
            f"{self.kernel_name} on {self.config_name}: lws={self.local_size} "
            f"-> {self.cycles} cycles ({self.num_calls} call(s), "
            f"{self.overhead_cycles} overhead)"
        )


def launch_kernel(device: Device, kernel: Kernel, arguments: Mapping[str, object],
                  global_size, local_size: Optional[int] = None,
                  call_simulation_limit: Optional[int] = None,
                  keep_buffers: bool = False,
                  reset_memory: bool = True,
                  max_cycles_per_call: Optional[int] = None) -> LaunchResult:
    """Run ``kernel`` on ``device`` and return a :class:`LaunchResult`.

    Parameters
    ----------
    arguments:
        Mapping from parameter name to a numpy array (uploaded automatically),
        an already-uploaded :class:`~repro.runtime.buffers.Buffer`, or a scalar.
    global_size:
        Flattened or multi-dimensional global work size.
    local_size:
        The lws to use.  ``None`` selects the paper's hardware-aware runtime
        mapping (Equation 1) -- the programmer never has to pick a value.
    call_simulation_limit:
        When a launch needs more sequential kernel calls than this limit, only
        a sample is simulated and the remaining full-size calls are
        extrapolated from the measured ones.  ``None`` simulates every call.
    keep_buffers:
        Keep the uploaded buffers allocated (useful when the caller wants to
        relaunch with the same data); by default the allocator is reset.
    reset_memory:
        Release every allocation before the launch.  The caches and the DRAM
        queue are invalidated either way (cold-start semantics), exactly once.
    """
    kernel.check_arguments(arguments)
    if local_size is None:
        from repro.core.optimizer import optimal_local_size  # deferred import (layering)
        ndrange_probe = NDRange(global_size, 1)
        local_size = optimal_local_size(ndrange_probe.global_size, device.config)
    ndrange = NDRange(global_size, local_size)

    if reset_memory:
        device.reset_memory()       # allocator and memory system
    else:
        device.gpu.reset_memory_system()

    buffers, argument_values = _prepare_arguments(device, kernel, arguments)
    program = build_workgroup_program(kernel)
    plan = build_dispatch_plan(ndrange, device.config, argument_values)

    call_cycles, counters, extrapolated = _simulate_calls(
        device, program, plan, call_simulation_limit, max_cycles_per_call)

    config = device.config
    overhead = sum(
        config.kernel_launch_overhead + config.warp_spawn_cost * call.warps_spawned
        for call in plan.calls
    )
    sim_cycles = sum(call_cycles)
    total = sim_cycles + overhead
    counters.kernel_calls = plan.num_calls
    counters.warps_launched = plan.total_warps_spawned
    counters.launch_overhead_cycles = overhead
    counters.cycles = total

    outputs = _collect_outputs(device, kernel, buffers)
    result = LaunchResult(
        kernel_name=kernel.name,
        config_name=config.name,
        global_size=ndrange.global_size,
        local_size=ndrange.local_size,
        num_workgroups=ndrange.num_workgroups,
        num_calls=plan.num_calls,
        cycles=total,
        sim_cycles=sim_cycles,
        overhead_cycles=overhead,
        counters=counters,
        call_cycles=call_cycles,
        outputs=outputs,
        buffers=buffers if keep_buffers else {},
        dispatch=plan,
        extrapolated=extrapolated,
    )
    if not keep_buffers:
        device.allocator.reset()
    return result


# ----------------------------------------------------------------------
def _prepare_arguments(device: Device, kernel: Kernel,
                       arguments: Mapping[str, object]):
    """Upload array arguments and build the argument-CSR value map."""
    buffers: Dict[str, Buffer] = {}
    argument_values: Dict[int, float] = {}
    for slot, param in enumerate(kernel.params):
        value = arguments[param.name]
        if isinstance(param, BufferParam):
            if isinstance(value, Buffer):
                buffer = value
            elif isinstance(value, np.ndarray):
                buffer = device.upload(value, name=f"{kernel.name}.{param.name}")
            else:
                raise LaunchError(
                    f"argument {param.name!r} of kernel {kernel.name!r} must be a numpy "
                    f"array or a device Buffer, got {type(value).__name__}"
                )
            buffers[param.name] = buffer
            argument_values[slot] = float(buffer.address)
        elif isinstance(param, ScalarParam):
            if isinstance(value, (Buffer, np.ndarray)):
                raise LaunchError(
                    f"argument {param.name!r} of kernel {kernel.name!r} is scalar but got "
                    f"{type(value).__name__}"
                )
            argument_values[slot] = float(value)
        else:  # pragma: no cover - defensive, no other param kinds exist
            raise LaunchError(f"unsupported parameter type {type(param).__name__}")
    return buffers, argument_values


def _simulate_calls(device: Device, program, plan: DispatchPlan,
                    call_simulation_limit: Optional[int],
                    max_cycles_per_call: Optional[int]):
    """Simulate the plan's kernel calls, optionally extrapolating the middle ones."""
    counters = PerfCounters()
    call_cycles: List[int] = []
    calls = plan.calls
    extrapolated = False

    tracer = device.gpu.tracer
    launch_gap = device.config.kernel_launch_overhead
    elapsed = 0
    simulate_all = (call_simulation_limit is None
                    or len(calls) <= max(2, call_simulation_limit))
    if simulate_all:
        for call in calls:
            if tracer is not None:
                # Each call pays its launch overhead before issuing; advancing
                # the offset keeps the multi-call trace on one global timeline.
                elapsed += launch_gap + device.config.warp_spawn_cost * call.warps_spawned
                tracer.begin_call(call.call_index, elapsed)
            result = device.gpu.run_call(program, call.launches, max_cycles=max_cycles_per_call)
            call_cycles.append(result.cycles)
            counters.merge(result.counters)
            elapsed += result.cycles
        return call_cycles, counters, extrapolated

    # Sampled simulation: the first calls capture cold-cache behaviour, the
    # last call captures the (possibly partial) tail; every skipped call is a
    # clone of the last fully simulated full-size call.
    extrapolated = True
    sample = max(2, call_simulation_limit)
    head = calls[:sample - 1]
    tail = calls[-1]
    simulated: Dict[int, int] = {}
    head_counters: List[PerfCounters] = []
    for call in head:
        result = device.gpu.run_call(program, call.launches, max_cycles=max_cycles_per_call)
        simulated[call.call_index] = result.cycles
        head_counters.append(result.counters)
        counters.merge(result.counters)
    tail_result = device.gpu.run_call(program, tail.launches, max_cycles=max_cycles_per_call)
    counters.merge(tail_result.counters)

    steady_state = simulated[head[-1].call_index]
    skipped = len(calls) - len(head) - 1
    for call in calls:
        if call.call_index in simulated:
            call_cycles.append(simulated[call.call_index])
        elif call.call_index == tail.call_index:
            call_cycles.append(tail_result.cycles)
        else:
            call_cycles.append(steady_state)
    # Scale the counters so instruction/memory totals reflect the whole launch
    # (the skipped calls behave like the last fully simulated full-size call).
    if skipped > 0:
        steady_counters = head_counters[-1].as_dict()
        counters.merge(PerfCounters.from_dict(
            {name: value * skipped for name, value in steady_counters.items()}))
    return call_cycles, counters, extrapolated


def _collect_outputs(device: Device, kernel: Kernel, buffers: Mapping[str, Buffer]):
    """Download every writable buffer so callers can check results."""
    outputs: Dict[str, np.ndarray] = {}
    for param in kernel.buffer_params:
        if param.writable and param.name in buffers:
            outputs[param.name] = device.download(buffers[param.name])
    return outputs
