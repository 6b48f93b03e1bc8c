"""Cross-module consistency checks.

The static analyser (repro.core.analysis), the dispatcher (repro.runtime) and
the launcher report overlapping quantities (number of kernel calls, lane
utilisation, launch overhead).  These tests pin them to each other so the
predictive analysis can be trusted to describe what the simulator actually
does -- which is the premise of making mapping decisions from analysis alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.spec import JobSpec
from repro.campaign.worker import run_spec
from repro.core.advisor import TuningAdvisor
from repro.core.analysis import MappingAnalyzer
from repro.experiments.ablation import BOUNDEDNESS_CONFIG, boundedness_record_from_job
from repro.kernels.library import VECADD
from repro.runtime.device import Device
from repro.runtime.dispatcher import build_dispatch_plan
from repro.runtime.launcher import launch_kernel
from repro.runtime.ndrange import NDRange
from repro.sim.config import ArchConfig
from repro.experiments.configs import paper_sweep
from repro.trace.analysis import analyze_trace
from repro.workloads.problems import available_problems


@settings(max_examples=80, deadline=None)
@given(gws=st.integers(min_value=1, max_value=4096),
       lws=st.integers(min_value=1, max_value=256),
       cores=st.integers(min_value=1, max_value=16),
       warps=st.integers(min_value=1, max_value=8),
       threads=st.integers(min_value=1, max_value=16))
def test_static_analysis_matches_the_dispatcher(gws, lws, cores, warps, threads):
    config = ArchConfig(cores=cores, warps_per_core=warps, threads_per_warp=threads)
    ndrange = NDRange(gws, lws)
    plan = build_dispatch_plan(ndrange, config, {})
    analysis = MappingAnalyzer(config).analyze(gws, lws)

    assert analysis.num_workgroups == plan.num_workgroups
    assert analysis.num_calls == plan.num_calls
    assert analysis.lane_utilization == pytest.approx(plan.average_lane_utilization)
    assert analysis.core_utilization == plan.calls[0].cores_used / cores
    # the regime label follows from the plan's own placement facts
    hp = config.hardware_parallelism
    assert (analysis.regime == "multiple-calls") == (plan.num_calls > 1)
    assert (analysis.regime == "balanced") == (
        plan.num_calls == 1 and plan.num_workgroups == min(hp, gws))


@pytest.mark.parametrize("problem", available_problems())
def test_one_run_gets_one_boundedness_verdict(problem):
    """The tuning advisor, the A2 ablation and the trace summary judge one
    traced launch by the same rule, so they name the same verdict."""
    job = run_spec(JobSpec(problem, BOUNDEDNESS_CONFIG, scale="smoke",
                           collect_trace=True))
    counters = job.perf_counters()
    advised = TuningAdvisor(BOUNDEDNESS_CONFIG).advise(
        job.global_size, job.local_size, counters).boundedness
    ablation = boundedness_record_from_job(job).boundedness
    traced = analyze_trace(job.events, counters).boundedness
    assert advised == ablation == traced != "unknown"


@pytest.mark.parametrize("lws", [1, 3, 8, 32, 64])
def test_launcher_overhead_matches_the_plan(lws):
    config = ArchConfig(cores=2, warps_per_core=2, threads_per_warp=4)
    device = Device(config)
    n = 64
    a, b = np.ones(n), np.ones(n)
    result = launch_kernel(device, VECADD, {"a": a, "b": b, "c": np.zeros(n)}, n,
                           local_size=lws)
    plan = result.dispatch
    assert result.num_calls == plan.num_calls
    expected_overhead = sum(
        config.kernel_launch_overhead + config.warp_spawn_cost * call.warps_spawned
        for call in plan.calls
    )
    assert result.overhead_cycles == expected_overhead
    assert result.cycles == sum(result.call_cycles) + expected_overhead
    assert result.counters.warps_launched == plan.total_warps_spawned


def test_every_paper_sweep_configuration_round_trips_and_is_simulatable():
    configs = paper_sweep()
    for config in configs:
        assert ArchConfig.from_name(config.name).hardware_parallelism == \
            config.hardware_parallelism
    # hardware parallelism spans the range the paper quotes
    hps = [c.hardware_parallelism for c in configs]
    assert min(hps) == 4            # 1c2w2t
    assert max(hps) == 65536        # 64c32w32t


def test_device_memory_exhaustion_is_reported_cleanly():
    from repro.runtime.errors import AllocationError
    device = Device(ArchConfig(cores=1, warps_per_core=2, threads_per_warp=2),
                    memory_words=256)
    with pytest.raises(AllocationError, match="exhausted"):
        launch_kernel(device, VECADD,
                      {"a": np.zeros(200), "b": np.zeros(200), "c": np.zeros(200)}, 200)


def test_counters_instruction_totals_are_consistent():
    config = ArchConfig(cores=2, warps_per_core=2, threads_per_warp=4)
    device = Device(config)
    n = 64
    result = launch_kernel(device, VECADD,
                           {"a": np.ones(n), "b": np.ones(n), "c": np.zeros(n)}, n)
    c = result.counters
    classified = (c.alu_instructions + c.fpu_instructions + c.sfu_instructions
                  + c.memory_instructions + c.control_instructions)
    # every issued instruction lands in exactly one class bucket except NOP/HALT
    assert classified <= c.warp_instructions
    assert c.warp_instructions - classified <= c.warps_launched * 2
    assert c.lane_instructions >= c.warp_instructions
    assert c.loads + c.stores == c.memory_instructions
