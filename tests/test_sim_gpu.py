"""Tests for the device model (repro.sim.gpu)."""

import pytest

from engine_fixtures import engine_under_test
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import Csr, CsrFile
from repro.kernels.builder import KernelBuilder
from repro.kernels.wrapper import build_workgroup_program
from repro.sim.config import ArchConfig
from repro.sim.core import SimulationError
from repro.sim.engine import ENGINES
from repro.sim.gpu import CallResult, Gpu, WarpLaunch
from repro.workloads.problems import available_problems, make_problem


def _csr(config, core_id=0, warp_id=0, lanes=None):
    lanes = lanes if lanes is not None else config.threads_per_warp
    return CsrFile(
        num_threads=config.threads_per_warp, num_warps=config.warps_per_core,
        num_cores=config.cores, warp_id=warp_id, core_id=core_id,
        workgroup_ids=[float(i) for i in range(lanes)],
        local_counts=[1.0] * lanes, local_size=1, global_size=lanes, num_groups=lanes,
    )


def _store_core_id_program():
    """Each lane stores (core_id * 100 + thread_id) to address (core_id * 8 + tid)."""
    b = KernelBuilder("whoami")
    core = b.csr(Csr.CORE_ID)
    tid = b.csr(Csr.THREAD_ID)
    value = core * 100 + tid
    address = b.const(0) + core * 8 + tid
    b.store(value.to_float(), address)
    b.halt()
    return b.link()


def test_run_call_with_no_launches_is_a_noop():
    gpu = Gpu(ArchConfig(), engine=engine_under_test())
    program = _store_core_id_program()
    result = gpu.run_call(program, [])
    assert result.cycles == 0


def test_run_call_executes_warps_on_their_assigned_cores():
    config = ArchConfig(cores=3, warps_per_core=2, threads_per_warp=4)
    gpu = Gpu(config, engine=engine_under_test())
    program = _store_core_id_program()
    launches = [WarpLaunch(core_id=c, warp_id=0, csr=_csr(config, core_id=c), active_lanes=4)
                for c in range(3)]
    result = gpu.run_call(program, launches)
    assert result.cycles > 0
    for core in range(3):
        for tid in range(4):
            assert gpu.memory.read(core * 8 + tid) == core * 100 + tid


def test_cores_execute_in_parallel_not_serially():
    """Running the same work on 1 vs 4 cores must not take 4x the cycles."""
    config1 = ArchConfig(cores=1, warps_per_core=1, threads_per_warp=4)
    config4 = ArchConfig(cores=4, warps_per_core=1, threads_per_warp=4)
    program = _store_core_id_program()

    gpu1 = Gpu(config1, engine=engine_under_test())
    single = gpu1.run_call(program, [WarpLaunch(0, 0, _csr(config1), 4)])

    gpu4 = Gpu(config4, engine=engine_under_test())
    launches = [WarpLaunch(core_id=c, warp_id=0, csr=_csr(config4, core_id=c), active_lanes=4)
                for c in range(4)]
    quad = gpu4.run_call(program, launches)
    # 4x the work in (roughly) the same time: allow generous slack for the
    # shared DRAM bandwidth, but far below 4x.
    assert quad.cycles < single.cycles * 2


def test_invalid_core_or_warp_targets_are_rejected():
    config = ArchConfig(cores=1, warps_per_core=1, threads_per_warp=2)
    gpu = Gpu(config, engine=engine_under_test())
    program = _store_core_id_program()
    with pytest.raises(SimulationError, match="core"):
        gpu.run_call(program, [WarpLaunch(5, 0, _csr(config), 2)])
    with pytest.raises(SimulationError, match="warp"):
        gpu.run_call(program, [WarpLaunch(0, 3, _csr(config), 2)])


def test_max_cycles_guard_triggers():
    config = ArchConfig(cores=1, warps_per_core=1, threads_per_warp=2)
    gpu = Gpu(config, engine=engine_under_test())
    # an infinite loop: JMP to itself
    program = Program.link(
        "spin",
        [Instruction(Opcode.JMP, target=0), Instruction(Opcode.HALT)],
        labels={}, num_registers=0)
    with pytest.raises(SimulationError, match="max_cycles"):
        gpu.run_call(program, [WarpLaunch(0, 0, _csr(config), 2)], max_cycles=100)


def _guard_error(engine, program, max_cycles=None):
    """The message a two-core call with two round-robin warps per core --
    a shape the batch engine streams -- raises under ``engine``."""
    config = ArchConfig(cores=2, warps_per_core=2, threads_per_warp=2)
    gpu = Gpu(config, engine=engine)
    launches = [WarpLaunch(c, w, _csr(config, core_id=c, warp_id=w), 2)
                for c in range(2) for w in range(2)]
    with pytest.raises(SimulationError) as raised:
        gpu.run_call(program, launches, max_cycles=max_cycles)
    return str(raised.value)


def test_loop_guards_raise_the_same_error_under_every_engine():
    spin = Program.link(
        "spin",
        [Instruction(Opcode.JMP, target=0), Instruction(Opcode.HALT)],
        labels={}, num_registers=0)
    # The only HALT is jumped over, so the warps run off the end.
    no_halt = Program.link(
        "no_halt",
        [Instruction(Opcode.JMP, target=2), Instruction(Opcode.HALT),
         Instruction(Opcode.LI, dst=0, imm=1.0),
         Instruction(Opcode.ADD, dst=1, srcs=(0, 0))],
        labels={}, num_registers=2)
    spun = {engine: _guard_error(engine, spin, max_cycles=100)
            for engine in ENGINES}
    assert "max_cycles=100" in spun["reference"]
    assert set(spun.values()) == {spun["reference"]}
    ran_off = {engine: _guard_error(engine, no_halt) for engine in ENGINES}
    assert "ran off the program" in ran_off["reference"]
    assert set(ran_off.values()) == {ran_off["reference"]}


def test_counters_are_populated():
    config = ArchConfig(cores=2, warps_per_core=1, threads_per_warp=4)
    gpu = Gpu(config, engine=engine_under_test())
    program = _store_core_id_program()
    launches = [WarpLaunch(core_id=c, warp_id=0, csr=_csr(config, core_id=c), active_lanes=4)
                for c in range(2)]
    result = gpu.run_call(program, launches)
    counters = result.counters
    assert counters.warp_instructions == 2 * len(program)
    assert counters.stores == 2
    assert counters.warps_launched == 2
    assert counters.cycles == result.cycles
    assert counters.issue_cycles > 0


def test_idle_skip_matches_dense_simulation_cycle_count():
    """The event-skip fast path must not change cycle arithmetic.

    A program with a long dependent chain through memory produces many idle
    cycles; simulating it on the Gpu (with skip) and on a dense per-cycle loop
    must agree on the final cycle count.
    """
    b = KernelBuilder("chain")
    base = b.const(0)
    value = b.load(base, 0)
    for _ in range(3):
        value = b.load(base, value.to_int())
    b.store(value, base, 64)
    b.halt()
    program = b.link()

    config = ArchConfig(cores=1, warps_per_core=1, threads_per_warp=2)
    gpu = Gpu(config, engine=engine_under_test())
    gpu_result = gpu.run_call(program, [WarpLaunch(0, 0, _csr(config), 2)])

    from tests.simt_harness import run_program
    dense = run_program(program, lanes=2, config=config)
    assert gpu_result.cycles == dense.cycles


def test_memory_system_reset_between_launches():
    config = ArchConfig(cores=1, warps_per_core=1, threads_per_warp=2)
    gpu = Gpu(config, engine=engine_under_test())
    b = KernelBuilder("loader")
    value = b.load(b.const(0), 0)
    b.store(value, b.const(0), 1)
    b.halt()
    program = b.link()
    first = gpu.run_call(program, [WarpLaunch(0, 0, _csr(config), 2)])
    warm = gpu.run_call(program, [WarpLaunch(0, 0, _csr(config), 2)])
    assert warm.cycles < first.cycles            # caches stayed warm within the launch
    gpu.reset_memory_system()
    cold = gpu.run_call(program, [WarpLaunch(0, 0, _csr(config), 2)])
    assert cold.cycles == first.cycles           # reset restored cold-cache behaviour


def test_decode_is_shared_by_every_device_running_the_same_program():
    """One decode per (program, line size, timing) for the whole process:
    the machine shape does not enter it, what the handlers bake in does."""
    from repro.isa.latencies import timing_for
    from repro.sim.fastcore import decode_program

    program = _store_core_id_program()
    small = ArchConfig(cores=1, warps_per_core=2, threads_per_warp=2)
    large = ArchConfig(cores=4, warps_per_core=8, threads_per_warp=32)
    decoded = decode_program(program, small)
    assert decode_program(program, large) is decoded
    for config in (small, large):
        gpu = Gpu(config, engine="fast")
        gpu.run_call(program, [WarpLaunch(0, 0, _csr(config), config.threads_per_warp)])
        assert decode_program(program, config) is decoded

    other_line = ArchConfig(l1_line_words=32, l2_line_words=32)
    slow_add = ArchConfig(timing_overrides={
        Opcode.ADD: timing_for(Opcode.MUL, {})})
    assert decode_program(program, other_line) is not decoded
    assert decode_program(program, slow_add) is not decoded
    # An equal but distinct Program object is decoded on its own.
    assert decode_program(_store_core_id_program(), small) is not decoded


def test_batch_compile_is_shared_like_the_decode():
    from repro.sim.batchcore import compiled_program
    from repro.sim.compile import compile_program

    program = _store_core_id_program()
    small = ArchConfig(cores=1, warps_per_core=2, threads_per_warp=2)
    large = ArchConfig(cores=4, warps_per_core=8, threads_per_warp=32)
    compiled = compiled_program(program, small)
    for config in (small, large):
        Gpu(config, engine="batch").run_call(
            program, [WarpLaunch(0, 0, _csr(config), config.threads_per_warp)])
        assert compiled_program(program, config) is compiled
    assert compiled_program(program, ArchConfig(l1_line_words=32,
                                                l2_line_words=32)) is not compiled
    # compile_program itself stays uncached (the harness times it cold).
    assert compile_program(program, small) is not compiled


@pytest.mark.parametrize("name", available_problems())
def test_batch_streams_only_cycle_aligned_kinds(name):
    """An op whose unit is held past its issue cycle never streams: the
    batch compile has no kind that would space a round's issues apart."""
    from repro.sim.compile import compile_program

    program = build_workgroup_program(make_problem(name, scale="smoke").kernel)
    compiled = compile_program(program, ArchConfig.from_name("4c8w8t"))
    assert {op.kind for op in compiled.ops} <= {
        "ewise", "scalar", "load", "store", "stop"}
    for op, decoded in zip(compiled.ops, compiled.decoded):
        if decoded.initiation_interval != 1:
            assert op.kind == "stop", decoded.instr
