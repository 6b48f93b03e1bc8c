"""Tests for the kernel launcher (repro.runtime.launcher) and Device."""

import numpy as np
import pytest

from repro.kernels.library import VECADD
from repro.kernels.kernel import KernelArgumentError
from repro.runtime.device import Device
from repro.runtime.errors import LaunchError
from repro.runtime.launcher import launch_kernel
from repro.sim.config import ArchConfig
from repro.workloads.problems import make_problem

CONFIG = ArchConfig(cores=2, warps_per_core=2, threads_per_warp=4)


def _vecadd_args(n=32, seed=1):
    rng = np.random.default_rng(seed)
    a, b = rng.random(n), rng.random(n)
    return {"a": a, "b": b, "c": np.zeros(n)}, a + b


# ----------------------------------------------------------------------
# basic behaviour
# ----------------------------------------------------------------------
def test_launch_produces_correct_outputs_and_metadata():
    device = Device(CONFIG)
    args, expected = _vecadd_args(32)
    result = launch_kernel(device, VECADD, args, 32, local_size=4)
    np.testing.assert_allclose(result.outputs["c"], expected)
    assert result.kernel_name == "vecadd"
    assert result.config_name == CONFIG.name
    assert result.global_size == 32
    assert result.local_size == 4
    assert result.num_workgroups == 8
    assert result.num_calls == 1
    assert result.cycles == result.sim_cycles + result.overhead_cycles
    assert len(result.call_cycles) == result.num_calls
    assert result.counters.kernel_calls == 1
    assert "vecadd" in result.summary()


def test_none_local_size_uses_equation_1():
    device = Device(CONFIG)            # hp = 16
    args, _ = _vecadd_args(64)
    result = launch_kernel(device, VECADD, args, 64, local_size=None)
    assert result.local_size == 4      # ceil(64 / 16)
    assert result.num_calls == 1


def test_multiple_calls_pay_overhead_each():
    device = Device(CONFIG)
    args, _ = _vecadd_args(64)
    naive = launch_kernel(device, VECADD, args, 64, local_size=1)
    assert naive.num_calls == 4
    assert naive.overhead_cycles >= 4 * CONFIG.kernel_launch_overhead
    optimal = launch_kernel(device, VECADD, args, 64, local_size=None)
    assert optimal.overhead_cycles < naive.overhead_cycles
    assert optimal.cycles < naive.cycles


def test_missing_argument_raises_kernel_argument_error():
    device = Device(CONFIG)
    args, _ = _vecadd_args(16)
    del args["b"]
    with pytest.raises(KernelArgumentError, match="missing"):
        launch_kernel(device, VECADD, args, 16)


def test_wrong_argument_kind_raises_launch_error():
    device = Device(CONFIG)
    args, _ = _vecadd_args(16)
    args["b"] = 3.0                    # buffer param given a scalar
    with pytest.raises(LaunchError, match="numpy array"):
        launch_kernel(device, VECADD, args, 16)


def test_scalar_param_given_array_raises():
    device = Device(CONFIG)
    problem = make_problem("saxpy", scale="smoke")
    arguments = dict(problem.arguments)
    arguments["a"] = np.zeros(4)       # scalar param given an array
    with pytest.raises(LaunchError, match="scalar"):
        launch_kernel(device, problem.kernel, arguments, problem.global_size)


def test_preuploaded_buffers_are_accepted():
    device = Device(CONFIG)
    args, expected = _vecadd_args(32)
    uploaded = {
        "a": device.upload(args["a"], name="a"),
        "b": device.upload(args["b"], name="b"),
        "c": device.upload(args["c"], name="c"),
    }
    result = launch_kernel(device, VECADD, uploaded, 32, local_size=4,
                           reset_memory=False, keep_buffers=True)
    np.testing.assert_allclose(result.outputs["c"], expected)
    assert result.buffers["c"].address == uploaded["c"].address


def test_outputs_contain_only_writable_buffers():
    device = Device(CONFIG)
    args, _ = _vecadd_args(16)
    result = launch_kernel(device, VECADD, args, 16)
    assert set(result.outputs) == {"c"}


# ----------------------------------------------------------------------
# extrapolated (sampled) simulation
# ----------------------------------------------------------------------
def test_call_extrapolation_matches_exact_simulation_closely():
    device = Device(CONFIG)
    args, _ = _vecadd_args(256)
    exact = launch_kernel(device, VECADD, args, 256, local_size=1)
    sampled = launch_kernel(device, VECADD, args, 256, local_size=1, call_simulation_limit=3)
    assert sampled.extrapolated
    assert not exact.extrapolated
    assert sampled.num_calls == exact.num_calls
    # the extrapolation may only differ through cold-vs-warm cache effects
    assert abs(sampled.cycles - exact.cycles) / exact.cycles < 0.15


def test_extrapolation_not_used_for_short_launches():
    device = Device(CONFIG)
    args, _ = _vecadd_args(32)
    result = launch_kernel(device, VECADD, args, 32, local_size=8, call_simulation_limit=3)
    assert not result.extrapolated


# ----------------------------------------------------------------------
# Device conveniences
# ----------------------------------------------------------------------
def test_device_accepts_config_names_and_reports_hp():
    device = Device("4c8w8t")
    assert device.hardware_parallelism == 4 * 8 * 8
    assert device.name == "4c8w8t"
    assert "hp = 256" in device.describe()


def test_device_launch_wrapper_matches_launch_kernel():
    device = Device(CONFIG)
    args, expected = _vecadd_args(32)
    result = device.launch(VECADD, args, 32)
    np.testing.assert_allclose(result.outputs["c"], expected)


def test_device_reset_memory_releases_allocations():
    device = Device(CONFIG)
    device.upload(np.zeros(64))
    assert device.allocator.allocated_words > 0
    device.reset_memory()
    assert device.allocator.allocated_words == 0


@pytest.mark.parametrize("reset_memory", [True, False])
def test_launch_invalidates_the_memory_system_exactly_once(monkeypatch, reset_memory):
    """Cold caches for every launch, one cache walk to get there -- and
    ``reset_memory=False`` keeps the allocations while still doing it."""
    device = Device(CONFIG)
    args, expected = _vecadd_args(32)
    if not reset_memory:
        args = {name: device.upload(value, name=name) for name, value in args.items()}
    allocated = device.allocator.allocated_words
    launch_kernel(device, VECADD, dict(args), 32, local_size=4,
                  reset_memory=reset_memory, keep_buffers=True)   # warms the caches
    calls = []
    invalidate = device.gpu.hierarchy.invalidate
    monkeypatch.setattr(device.gpu.hierarchy, "invalidate",
                        lambda: (calls.append(1), invalidate())[1])
    second = launch_kernel(device, VECADD, dict(args), 32, local_size=4,
                           reset_memory=reset_memory, keep_buffers=True)
    assert len(calls) == 1
    assert second.counters.l1_hits + second.counters.l1_misses > 0
    assert second.counters.l2_hits == 0              # nothing survived the reset
    np.testing.assert_allclose(second.outputs["c"], expected)
    if not reset_memory:
        assert device.allocator.allocated_words == allocated
