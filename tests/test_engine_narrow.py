"""The ``fast`` engine's narrow-warp paths, pinned one by one.

A warp launched with at most two active lanes keeps its registers as Python
float lists and runs every opcode's per-lane ``lane`` form, its loads and
stores computing addresses, lines and bounds proof in Python ints; a wider
warp under a contiguous prefix mask runs on register-row *views* of the
active width (see :mod:`repro.sim.fastcore`).  Results are compared with the
``reference`` engine; errors with the wide numpy path of the same engine,
whose exception the list path must reproduce by falling through to it.
"""

import itertools

import numpy as np
import pytest

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPS, Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_ARG_SLOTS, Csr, CsrFile
from repro.sim import batchcore
from repro.sim.config import ArchConfig
from repro.sim.engine import ENGINES
from repro.sim.gpu import Gpu, WarpLaunch
from repro.sim.memory.mainmem import MemoryError_
from repro.sim.stats import PerfCounters
from repro.sim.warp import FastWarp

O = Opcode
CONFIG = ArchConfig(cores=1, warps_per_core=2, threads_per_warp=8)
#: 100 words of 16-word lines: six full lines, then four valid words (96..99)
#: in a line the bounds proof cannot cover.
MEMORY_WORDS = 100


def _program(*instructions, registers=6):
    return Program.link("narrow", list(instructions) + [Instruction(O.HALT)],
                        labels={}, num_registers=registers)


def _launches(config, active_lanes, warps, args=None):
    """``warps`` warps of ``active_lanes`` lanes on every core of ``config``."""
    return [
        WarpLaunch(core_id, warp_id, CsrFile(
            num_threads=config.threads_per_warp, num_warps=config.warps_per_core,
            num_cores=config.cores, warp_id=warp_id, core_id=core_id,
            workgroup_ids=[float(lane) for lane in range(active_lanes)],
            local_counts=[1.0] * active_lanes, args=dict(args or {})),
            active_lanes)
        for core_id in range(config.cores) for warp_id in range(warps)]


def _outcome(engine, program, active_lanes, config=CONFIG, warps=1,
             memory_words=MEMORY_WORDS, memory=None, args=None):
    """Everything observable about one kernel call: ``(cycles, counters,
    memory bytes)``, or ``("raised", type, message)``.  Memory starts as
    ``memory`` or, by default, ``0.5, 1.5, ...``; ``args`` are the scalar
    arguments by slot."""
    gpu = Gpu(config, memory_words=memory_words, engine=engine)
    gpu.memory.write_block(0, np.arange(memory_words, dtype=np.float64) + 0.5
                           if memory is None else memory)
    launches = _launches(config, active_lanes, warps, args)
    try:
        result = gpu.run_call(program, launches)
    except Exception as error:      # noqa: BLE001 - the outcome *is* the error
        return ("raised", type(error), str(error))
    return (result.cycles, result.counters.as_dict(), gpu.memory.view().tobytes())


def _lane_address(base):
    """r2 <- base + lane id."""
    return (Instruction(O.CSRR, dst=0, imm=Csr.THREAD_ID),
            Instruction(O.LI, dst=1, imm=base),
            Instruction(O.ADD, dst=2, srcs=(0, 1)))


def _load_program(base):
    return _program(*_lane_address(base),
                    Instruction(O.LOAD, dst=3, srcs=(2,), imm=0),
                    Instruction(O.STORE, srcs=(3, 0), imm=8))


def _store_program(base):
    return _program(*_lane_address(base),
                    Instruction(O.STORE, srcs=(0, 2), imm=0))


# ----------------------------------------------------------------------
# prefix masks are views, and the views follow the mask and the storage
# ----------------------------------------------------------------------
@pytest.mark.parametrize("active_lanes", [1, 2, 5])
def test_tmc_rewidens_a_warp_launched_under_a_prefix_mask(active_lanes):
    """Ops before the TMC touch ``active_lanes`` lanes, ops after it all 8."""
    program = _program(
        *_lane_address(3.0),
        Instruction(O.STORE, srcs=(2, 0), imm=0),
        Instruction(O.TMC, imm=8),
        *_lane_address(40.0),
        Instruction(O.LOAD, dst=3, srcs=(2,), imm=0),
        Instruction(O.FMA, dst=4, srcs=(3, 0, 2)),
        Instruction(O.STORE, srcs=(4, 0), imm=16),
        Instruction(O.TMC, imm=active_lanes),
        Instruction(O.STORE, srcs=(0, 0), imm=32),
    )
    reference = _outcome("reference", program, active_lanes)
    assert reference[0] != "raised"
    for engine in ENGINES:
        assert _outcome(engine, program, active_lanes) == reference, engine


def test_views_follow_the_mask_and_rebinding_drops_them():
    warp = FastWarp(0, lane_count=8, num_registers=3,
                    csr=CsrFile(num_threads=8, num_warps=1, num_cores=1),
                    active_lanes=2)
    narrow = warp.refresh()
    assert [len(row) for row in narrow] == [2, 2, 2] and warp.sel is None
    narrow[1][:] = 7.0
    assert warp.regs[1].tolist() == [7.0, 7.0] + [0.0] * 6
    warp.active_mask = 0b11111111
    assert warp.refresh() is warp.rows          # all lanes: the rows themselves
    warp.active_mask = 0b101                    # true divergence: index array
    assert warp.refresh() is None and warp.sel.tolist() == [0, 2]
    warp.active_mask = 0b11
    assert warp.refresh() is narrow             # built once per mask value
    slab = np.zeros((3, 8))
    warp.bind_rows(slab)                        # what the batch engine's _adopt does
    rebound = warp.refresh()
    assert rebound is not narrow
    assert all(np.shares_memory(row, slab) for row in rebound)


def test_batch_fallback_runs_on_the_rebound_rows():
    """Two prefix-masked warps doing strided multi-line gathers: the batch
    engine adopts their registers into its slab, cannot stream the masked
    multi-line rounds, and falls back to the per-warp handlers."""
    program = _program(
        Instruction(O.CSRR, dst=0, imm=Csr.THREAD_ID),
        Instruction(O.LI, dst=1, imm=17.0),
        Instruction(O.MUL, dst=2, srcs=(0, 1)),
        Instruction(O.LOAD, dst=3, srcs=(2,), imm=1),
        Instruction(O.ADD, dst=4, srcs=(3, 0)),
        Instruction(O.STORE, srcs=(4, 2), imm=2),
    )
    reference = _outcome("reference", program, 3, warps=2)
    assert reference[0] != "raised"
    for engine in ("fast", "batch"):
        assert _outcome(engine, program, 3, warps=2) == reference, engine


# ----------------------------------------------------------------------
# the 1- and 2-lane memory path
# ----------------------------------------------------------------------
def test_two_lane_store_to_one_address_keeps_lane_one():
    program = _program(Instruction(O.CSRR, dst=0, imm=Csr.THREAD_ID),
                       Instruction(O.LI, dst=1, imm=7.0),
                       Instruction(O.ADD, dst=2, srcs=(0, 1)),
                       Instruction(O.STORE, srcs=(2, 1), imm=0))
    reference = _outcome("reference", program, 2)
    assert np.frombuffer(reference[2])[7] == 8.0        # lane 1's value
    for engine in ENGINES:
        assert _outcome(engine, program, 2) == reference, engine


@pytest.mark.parametrize("make_program", [_load_program, _store_program],
                         ids=["load", "store"])
@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("base", [15.0, 95.0, 98.0, 99.0, 100.0, -1.0, -2.0])
def test_narrow_access_at_the_edges_of_memory(make_program, lanes, base):
    """Across a line boundary, into the partial last line, one past the end
    and below zero: a valid access matches the reference bit for bit, an
    invalid one raises what the wide path raises."""
    program = make_program(base)
    narrow = _outcome("fast", program, lanes)
    reference = _outcome("reference", program, lanes)
    valid = 0 <= base and base + lanes - 1 < MEMORY_WORDS
    if valid:
        assert narrow == reference
    else:
        wide = _outcome("fast", program, 8)
        assert wide[:2] == ("raised", MemoryError_)
        assert narrow == wide
        assert reference[:2] == ("raised", MemoryError_)


@pytest.mark.parametrize("lanes", [1, 2])
def test_narrow_access_with_a_non_power_of_two_line(lanes):
    config = ArchConfig(cores=1, warps_per_core=2, threads_per_warp=8,
                        l1_line_words=12, l1_size_words=4080,
                        l2_line_words=12, l2_size_words=32736)
    for base in (10.0, 11.0, 12.0, 23.0):
        program = _load_program(base)
        reference = _outcome("reference", program, lanes, config=config)
        assert reference[0] != "raised"
        assert reference[1]["load_lines"] == (2 if lanes == 2 and base % 12 == 11 else 1)
        for engine in ENGINES:
            assert _outcome(engine, program, lanes, config=config) == reference


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                   2.0 ** 63, -2.0 ** 63 - 2048.0])
def test_unrepresentable_address_under_one_lane_raises_like_the_wide_path(value):
    """``int(nan)`` would raise ValueError inside the narrow path; it must
    hand over to the general path instead, whatever that does with the cast."""
    program = _program(Instruction(O.LI, dst=1, imm=value),
                       Instruction(O.LOAD, dst=2, srcs=(1,), imm=4),
                       Instruction(O.STORE, srcs=(2, 1), imm=0))
    wide = _outcome("fast", program, 8)
    assert wide[:2] == ("raised", MemoryError_)
    assert _outcome("fast", program, 1) == wide
    assert _outcome("fast", program, 2) == wide


@pytest.mark.parametrize("base", [95.0, -3.0])
def test_rewidened_list_warp_raises_like_the_numpy_path(base):
    """A TMC re-widens a 1-lane list warp to 8 lanes: its out-of-range access
    takes the checked numpy path and raises what an 8-lane launch raises."""
    program = _program(Instruction(O.TMC, imm=8), *_lane_address(base),
                       Instruction(O.LOAD, dst=3, srcs=(2,), imm=0))
    wide = _outcome("fast", program, 8)
    assert wide[:2] == ("raised", MemoryError_)
    assert _outcome("fast", program, 1) == wide


# ----------------------------------------------------------------------
# which warps hold lists, and every opcode on them
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine, list_launches", [("fast", {1, 2}), ("batch", set())])
def test_only_fast_launches_of_at_most_two_lanes_hold_lists(engine, list_launches):
    """Lists under ``fast`` for 1- and 2-lane launches, full ``lane_count``
    wide and holding Python floats after a run; numpy rows otherwise."""
    config = ArchConfig(cores=1, warps_per_core=4, threads_per_warp=8)
    launches = [WarpLaunch(0, warp_id, CsrFile(num_threads=8, num_warps=4, num_cores=1,
                                               warp_id=warp_id), lanes)
                for warp_id, lanes in enumerate((1, 2, 3, 8))]
    gpu = Gpu(config, memory_words=MEMORY_WORDS, engine=engine)
    counters = PerfCounters()
    cores, run_loop = gpu._build_cores(_load_program(3.0), launches, counters)
    run_loop(cores, counters, None, None)
    for warp, launch in zip(cores[0].warps, launches):
        if launch.active_lanes in list_launches:
            assert warp.lists and warp.tups is cores[0]._decode.list_tups
            assert all(type(row) is list and len(row) == 8 for row in warp.rows)
            assert {type(value) for row in warp.rows for value in row} == {float}
        else:
            assert not warp.lists and warp.tups is cores[0]._decode.tups
            assert isinstance(warp.regs, np.ndarray) and warp.regs.shape == (6, 8)


def _countdown_program(trips_csr):
    """Each warp loops ``1 + CSR trips_csr`` times (an FMA and a store per
    trip), then halts."""
    return _program(
        Instruction(O.CSRR, dst=0, imm=trips_csr),
        Instruction(O.LI, dst=1, imm=1.0),
        Instruction(O.ADD, dst=2, srcs=(0, 1)),
        Instruction(O.CSRR, dst=3, imm=Csr.THREAD_ID),
        Instruction(O.LOOP_BEGIN),
        Instruction(O.FMA, dst=4, srcs=(3, 2, 1)),
        Instruction(O.STORE, srcs=(4, 3), imm=8),
        Instruction(O.SUB, dst=2, srcs=(2, 1)),
        Instruction(O.LOOP_END, srcs=(2,), target=5),
    )


@pytest.mark.parametrize("trips_csr", [Csr.CORE_ID, Csr.WARP_ID],
                         ids=["per_core", "per_warp"])
def test_warps_halting_partway_through_batch_windows_match_reference(
        trips_csr, monkeypatch):
    """Per core: one core's warps halt in a streamed HALT round while the
    other's still run.  Per warp: a core's warps halt one at a time while its
    other warps keep issuing.  Either way the halted warps stay parked."""
    streamed_halts = []
    commit = batchcore._HaltPlan.commit

    def counting_commit(plan, *args):
        streamed_halts.append(plan.n)
        commit(plan, *args)
    monkeypatch.setattr(batchcore._HaltPlan, "commit", counting_commit)
    config = ArchConfig(cores=2, warps_per_core=3, threads_per_warp=8)
    program = _countdown_program(trips_csr)
    reference = _outcome("reference", program, 8, config=config, warps=3)
    assert reference[0] != "raised"
    assert _outcome("batch", program, 8, config=config, warps=3) == reference
    if trips_csr is Csr.CORE_ID:
        assert streamed_halts == [3, 3]


#: Register values the list path must treat exactly as the reference does:
#: NaN, both infinities, a negative zero, 2**53 + 1 (no float64 holds it: it
#: rounds to 2**53), 1e308 (FMUL, FMA and FEXP overflow) and one plain value.
_SEEDS = (float("nan"), float("inf"), float("-inf"), -0.0, 2.0 ** 53 + 1, 1e308, 3.0)


def _lane_op_program(opcode, imm=None):
    """r0 <- lane; source s <- mem[8 s + lane]; r6 <- op; mem[40 + lane] <- r6."""
    srcs = tuple(range(1, 1 + OPS[opcode].srcs))
    loads = [Instruction(O.LOAD, dst=reg, srcs=(0,), imm=8 * (reg - 1)) for reg in srcs]
    return _program(Instruction(O.CSRR, dst=0, imm=Csr.THREAD_ID), *loads,
                    Instruction(opcode, dst=6, srcs=srcs, imm=imm),
                    Instruction(O.STORE, srcs=(6, 0), imm=40), registers=7)


def _lane_op_cases(opcode, lanes):
    """``(program, memory)`` per kernel call: every combination of seeds as
    the operands of some lane, ``lanes`` combinations per call."""
    srcs = OPS[opcode].srcs
    if not srcs:
        for value in _SEEDS:
            yield _lane_op_program(opcode, imm=value), None
        return
    combos = list(itertools.product(_SEEDS, repeat=srcs))
    program = _lane_op_program(opcode)
    for start in range(0, len(combos), lanes):
        memory = np.arange(MEMORY_WORDS, dtype=np.float64) + 0.5
        for lane in range(lanes):
            for s, value in enumerate(combos[(start + lane) % len(combos)]):
                memory[8 * s + lane] = value
        yield program, memory


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("opcode", [opcode for opcode, spec in OPS.items()
                                    if spec.lane is not None],
                         ids=lambda opcode: opcode.value)
def test_every_lane_opcode_on_list_registers_matches_the_reference(opcode):
    """1 and 2 lanes on 2- and 32-lane machines run the list closures; the
    3-lane launch is the numpy warp for contrast.  Either the whole call
    matches, or both engines raise the same error."""
    for threads, lanes in ((2, 1), (2, 2), (32, 1), (32, 2), (32, 3)):
        config = ArchConfig(cores=1, warps_per_core=1, threads_per_warp=threads)
        for program, memory in _lane_op_cases(opcode, lanes):
            reference = _outcome("reference", program, lanes, config=config,
                                 memory=memory)
            fast = _outcome("fast", program, lanes, config=config, memory=memory)
            assert fast == reference, (threads, lanes, program, memory)


@pytest.mark.parametrize("csr", list(Csr) + [Csr.ARG_BASE + 1,
                                             Csr.ARG_BASE + NUM_ARG_SLOTS - 1,
                                             Csr.ARG_BASE + NUM_ARG_SLOTS])
def test_every_csr_read_on_list_registers_matches_the_reference(csr):
    """Each CSR read, stored per lane: hardware CSRs, a set and an unset
    argument slot, and a number past the argument window (both engines
    raise)."""
    program = _program(Instruction(O.CSRR, dst=0, imm=int(csr)),
                       Instruction(O.CSRR, dst=1, imm=Csr.THREAD_ID),
                       Instruction(O.STORE, srcs=(0, 1), imm=8))
    for lanes in (1, 2, 3):
        outcomes = [_outcome(engine, program, lanes, args={1: 2.5})
                    for engine in ("reference", "fast")]
        assert outcomes[0] == outcomes[1], (csr, lanes)
