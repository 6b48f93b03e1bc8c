"""Tests for NDRange decomposition (repro.runtime.ndrange)."""

import pytest

from repro.runtime.errors import LaunchError
from repro.runtime.ndrange import NDRange


def test_one_dimensional_range():
    ndrange = NDRange(128, 16)
    assert ndrange.global_size == 128
    assert ndrange.local_size == 16
    assert ndrange.num_workgroups == 8


def test_multi_dimensional_ranges_are_flattened():
    assert NDRange((16, 8), 4).global_size == 128
    assert NDRange((4, 4, 4), 2).global_size == 64
    assert NDRange((360, 360), 32).num_workgroups == -(-360 * 360 // 32)


def test_partial_last_workgroup():
    ndrange = NDRange(100, 32)
    assert ndrange.num_workgroups == 4
    assert ndrange.workgroup_size(0) == 32
    assert ndrange.workgroup_size(2) == 32
    assert ndrange.workgroup_size(3) == 4


def test_workgroup_size_bounds_checked():
    ndrange = NDRange(100, 32)
    with pytest.raises(LaunchError):
        ndrange.workgroup_size(4)
    with pytest.raises(LaunchError):
        ndrange.workgroup_size(-1)


def test_local_size_larger_than_global_is_clamped():
    ndrange = NDRange(10, 64)
    assert ndrange.local_size == 10
    assert ndrange.num_workgroups == 1


def test_invalid_sizes_rejected():
    with pytest.raises(LaunchError):
        NDRange(0, 1)
    with pytest.raises(LaunchError):
        NDRange((4, -1), 1)
    with pytest.raises(LaunchError):
        NDRange(16, 0)
    with pytest.raises(LaunchError):
        NDRange((1, 2, 3, 4), 1)


def test_workgroup_sizes_sum_to_global_size():
    for gws, lws in ((128, 16), (100, 32), (7, 3), (4096, 5)):
        ndrange = NDRange(gws, lws)
        total = sum(ndrange.workgroup_size(i) for i in range(ndrange.num_workgroups))
        assert total == gws
