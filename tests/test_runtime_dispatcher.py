"""Tests for the Vortex-style dispatcher (repro.runtime.dispatcher).

These tests pin down the mapping semantics the whole paper rests on: how
workgroups are spread across cores, how lanes are filled threads-first, when
multiple kernel calls are needed, and what the three regimes look like (their
labels are ``MappingAnalyzer``'s, tested in ``test_core_analysis.py``).
"""

import math

import pytest

from repro.isa.registers import Csr
from repro.runtime.dispatcher import build_dispatch_plan
from repro.runtime.ndrange import NDRange
from repro.sim.config import ArchConfig


def _plan(gws, lws, cores=1, warps=2, threads=4, args=None):
    config = ArchConfig(cores=cores, warps_per_core=warps, threads_per_warp=threads)
    return build_dispatch_plan(NDRange(gws, lws), config, args or {}), config


# ----------------------------------------------------------------------
# the three regimes of the paper (Figure 1, gws=128, hp=8)
# ----------------------------------------------------------------------
def test_regime_multiple_calls_when_lws_too_small():
    plan, _ = _plan(128, 1)           # 128 workgroups on 8 lanes
    assert plan.num_workgroups == 128
    assert plan.num_calls == 16
    assert all(call.lane_utilization == 1.0 for call in plan.calls)


def test_regime_balanced_when_lws_matches_eq1():
    plan, _ = _plan(128, 16)          # exactly hp workgroups
    assert plan.num_workgroups == 8
    assert plan.num_calls == 1
    assert plan.calls[0].lane_utilization == 1.0


def test_regime_under_utilised_when_lws_too_large():
    plan, _ = _plan(128, 32)          # 4 workgroups on 8 lanes
    assert plan.num_workgroups == 4
    assert plan.num_calls == 1
    assert plan.calls[0].lane_utilization == pytest.approx(0.5)

    plan64, _ = _plan(128, 64)
    assert plan64.calls[0].lane_utilization == pytest.approx(0.25)


# ----------------------------------------------------------------------
# placement rules
# ----------------------------------------------------------------------
def test_workgroups_split_equally_across_cores():
    plan, _ = _plan(64, 1, cores=4, warps=2, threads=4)
    first_call = plan.calls[0]
    per_core = {}
    for launch in first_call.launches:
        per_core.setdefault(launch.core_id, 0)
        per_core[launch.core_id] += len(launch.csr.workgroup_ids)
    assert set(per_core) == {0, 1, 2, 3}
    assert all(count == 8 for count in per_core.values())


def test_threads_filled_before_warps():
    # 6 workgroups on a core with 2 warps x 4 threads: warp 0 gets 4, warp 1 gets 2
    plan, _ = _plan(6, 1, cores=1, warps=2, threads=4)
    launches = plan.calls[0].launches
    assert len(launches) == 2
    assert launches[0].warp_id == 0 and launches[0].active_lanes == 4
    assert launches[1].warp_id == 1 and launches[1].active_lanes == 2


def test_every_workgroup_assigned_exactly_once():
    plan, _ = _plan(100, 3, cores=3, warps=2, threads=4)
    seen = []
    for call in plan.calls:
        for launch in call.launches:
            seen.extend(int(w) for w in launch.csr.workgroup_ids)
    assert sorted(seen) == list(range(plan.num_workgroups))


def test_partial_workgroup_gets_reduced_local_count():
    plan, _ = _plan(10, 4, cores=1, warps=2, threads=4)       # groups of 4, 4, 2
    launches = plan.calls[0].launches
    counts = [count for launch in launches for count in launch.csr.local_counts]
    assert sorted(counts) == [2.0, 4.0, 4.0]


def test_csr_contents_describe_the_launch():
    plan, config = _plan(64, 8, cores=2, warps=2, threads=4)
    launch = plan.calls[0].launches[0]
    csr = launch.csr
    assert csr.local_size == 8
    assert csr.global_size == 64
    assert csr.num_groups == 8
    assert csr.num_threads == config.threads_per_warp
    assert csr.num_cores == config.cores
    assert csr.read(Csr.CALL_INDEX, 0) == 0


def test_argument_values_replicated_into_every_warp():
    plan, _ = _plan(32, 1, cores=2, warps=2, threads=4, args={0: 123.0, 1: 7.0})
    for call in plan.calls:
        for launch in call.launches:
            assert launch.csr.args[0] == 123.0
            assert launch.csr.args[1] == 7.0


def test_multiple_calls_partition_workgroups_in_order():
    plan, _ = _plan(40, 1, cores=1, warps=2, threads=4)       # hp = 8 -> 5 calls
    assert plan.num_calls == 5
    assert plan.calls[0].workgroups == tuple(range(8))
    assert plan.calls[-1].workgroups == tuple(range(32, 40))
    assert plan.calls[2].call_index == 2


def test_last_call_may_be_partially_filled():
    plan, _ = _plan(20, 1, cores=1, warps=2, threads=4)       # hp = 8 -> calls of 8, 8, 4
    assert plan.num_calls == 3
    assert plan.calls[-1].active_lanes == 4
    assert plan.calls[-1].lane_utilization == pytest.approx(0.5)
    assert plan.average_lane_utilization == pytest.approx((1 + 1 + 0.5) / 3)


def test_total_warps_spawned_counts_every_call():
    plan, _ = _plan(32, 1, cores=1, warps=2, threads=4)       # 4 calls x 2 warps
    assert plan.total_warps_spawned == 8


def test_cores_used_reflects_under_utilisation():
    plan, _ = _plan(8, 8, cores=4, warps=2, threads=4)        # only 1 workgroup
    assert plan.calls[0].cores_used == 1
    assert plan.calls[0].warps_spawned == 1


def test_huge_machine_with_tiny_problem_single_call():
    plan, config = _plan(16, 1, cores=8, warps=4, threads=8)
    assert config.hardware_parallelism == 256
    assert plan.num_calls == 1
    # spread equally: ceil(16/8)=2 workgroups per core, 8 cores used
    assert plan.calls[0].cores_used == 8
    assert plan.calls[0].active_lanes == 16
