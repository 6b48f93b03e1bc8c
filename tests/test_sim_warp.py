"""Tests for warp state (repro.sim.warp)."""

import pytest

from repro.isa.registers import CsrFile
from repro.sim.warp import Warp, lanes_of, mask_of, popcount


def _csr(lanes=4):
    return CsrFile(num_threads=lanes, num_warps=2, num_cores=1)


def test_mask_helpers():
    assert mask_of(4) == 0b1111
    assert mask_of(1) == 0b1
    assert popcount(0b1011) == 3
    assert lanes_of(0b1010) == [1, 3]
    assert lanes_of(0) == []


def test_warp_starts_with_requested_active_lanes():
    warp = Warp(0, lane_count=4, num_registers=8, csr=_csr(), active_lanes=3)
    assert warp.active_mask == 0b111
    assert warp.active_lanes() == [0, 1, 2]
    assert not warp.halted
    assert warp.runnable


def test_warp_defaults_to_all_lanes_active():
    warp = Warp(0, lane_count=4, num_registers=2, csr=_csr())
    assert warp.active_mask == 0b1111


def test_invalid_active_lane_counts_rejected():
    with pytest.raises(ValueError):
        Warp(0, lane_count=4, num_registers=1, csr=_csr(), active_lanes=0)
    with pytest.raises(ValueError):
        Warp(0, lane_count=4, num_registers=1, csr=_csr(), active_lanes=5)
    with pytest.raises(ValueError):
        Warp(0, lane_count=0, num_registers=1, csr=_csr())


def test_active_lane_cache_tracks_mask_changes():
    warp = Warp(0, lane_count=4, num_registers=1, csr=_csr())
    assert warp.active_lanes() == [0, 1, 2, 3]
    warp.active_mask = 0b0101
    assert warp.active_lanes() == [0, 2]


def test_register_file_shape_and_independence():
    warp = Warp(0, lane_count=3, num_registers=5, csr=_csr(3))
    warp.regs[1][2] = 42.0
    assert warp.regs[0][2] == 0.0
    assert warp.regs[1][2] == 42.0
    assert len(warp.regs) == 3
    assert all(len(lane) == 5 for lane in warp.regs)


def test_scoreboard_ready_cycle_and_retirement():
    warp = Warp(0, lane_count=2, num_registers=4, csr=_csr(2))
    warp.scoreboard[1] = 10
    warp.scoreboard[3] = 20
    assert warp.registers_ready_cycle((0,)) == 0
    assert warp.registers_ready_cycle((1,)) == 10
    assert warp.registers_ready_cycle((1, 3)) == 20
    warp.retire_completed_writes(15)
    assert 1 not in warp.scoreboard
    assert 3 in warp.scoreboard


def test_runnable_reflects_halt_and_barrier():
    warp = Warp(0, lane_count=2, num_registers=1, csr=_csr(2))
    warp.at_barrier = True
    assert not warp.runnable
    warp.at_barrier = False
    warp.halted = True
    assert not warp.runnable


# ----------------------------------------------------------------------
# FastWarp construction
# ----------------------------------------------------------------------
def test_fast_warp_allocates_only_its_numpy_register_file():
    import numpy as np

    from repro.sim.warp import FastWarp

    first = FastWarp(0, lane_count=4, num_registers=3, csr=_csr(), active_lanes=3)
    second = FastWarp(1, lane_count=4, num_registers=3, csr=_csr())
    assert isinstance(first.regs, np.ndarray) and first.regs.shape == (3, 4)
    assert first.active_mask == 0b111 and first.active_lanes() == [0, 1, 2]
    assert all(np.shares_memory(row, first.regs) for row in first.rows)
    # The lane constants are one read-only pair per warp width.
    assert first.lane_ids is second.lane_ids and first.bit_weights is second.bit_weights
    assert first.lane_ids.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert first.bit_weights.tolist() == [1.0, 2.0, 4.0, 8.0]
    assert not first.lane_ids.flags.writeable and not first.bit_weights.flags.writeable
    assert first.scratch is not second.scratch
    with pytest.raises(ValueError):
        FastWarp(0, lane_count=4, num_registers=1, csr=_csr(), active_lanes=5)
