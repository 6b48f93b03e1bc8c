"""Tests for the kernel builder DSL (repro.kernels.builder).

Structural tests check the emitted instruction stream; behavioural tests link
the program and execute it on the simulator harness to check the semantics of
control-flow constructs, constants and memory helpers.
"""

import pytest

from repro.isa.opcodes import Opcode
from repro.isa.registers import Csr
from repro.kernels.builder import BuildError, KernelBuilder
from repro.sim.config import ArchConfig

from tests.simt_harness import run_program


# ----------------------------------------------------------------------
# structural behaviour
# ----------------------------------------------------------------------
def test_emit_stamps_current_section():
    b = KernelBuilder("sections")
    b.const(1)
    with b.section("custom"):
        b.const(2)
    assert b._instructions[0].section == "body"
    assert b._instructions[1].section == "custom"


def test_nested_sections_restore_previous_tag():
    b = KernelBuilder("nest")
    with b.section("outer"):
        b.nop()
        with b.section("inner"):
            b.nop()
        b.nop()
    sections = [i.section for i in b._instructions]
    assert sections == ["outer", "inner", "outer"]


def test_constants_are_cached_within_a_region():
    b = KernelBuilder("consts")
    first = b.const(42)
    second = b.const(42)
    assert first.reg == second.reg
    assert sum(1 for i in b._instructions if i.opcode is Opcode.LI) == 1


def test_constant_cache_distinguishes_dtypes():
    b = KernelBuilder("consts")
    as_int = b.const(1)
    as_float = b.const(1.0)
    assert as_int.reg != as_float.reg


def test_constants_defined_inside_if_are_not_reused_outside():
    b = KernelBuilder("consts")
    cond = b.const(1)
    with b.if_(cond):
        inner = b.const(77)
    outer = b.const(77)
    assert inner.reg != outer.reg


def test_constants_defined_before_if_are_reused_inside():
    b = KernelBuilder("consts")
    outer = b.const(9)
    cond = b.const(1)
    with b.if_(cond):
        inner = b.const(9)
    assert inner.reg == outer.reg


def test_place_label_twice_raises():
    b = KernelBuilder("labels")
    label = b.new_label()
    b.place_label(label)
    with pytest.raises(BuildError):
        b.place_label(label)


def test_kernel_arg_slot_validation():
    b = KernelBuilder("args")
    with pytest.raises(BuildError):
        b.kernel_arg(99, dtype="i")


def test_for_range_requires_integer_count():
    b = KernelBuilder("loop")
    with pytest.raises(BuildError):
        with b.for_range(b.const(2.0)):
            pass


def test_if_emits_split_and_two_joins():
    b = KernelBuilder("if")
    cond = b.const(1)
    with b.if_(cond):
        b.nop()
    opcodes = [i.opcode for i in b._instructions]
    assert opcodes.count(Opcode.SPLIT) == 1
    assert opcodes.count(Opcode.JOIN) == 2


def test_for_range_emits_loop_begin_and_end():
    b = KernelBuilder("loop")
    with b.for_range(4, guard=False):
        b.nop()
    opcodes = [i.opcode for i in b._instructions]
    assert Opcode.LOOP_BEGIN in opcodes
    assert Opcode.LOOP_END in opcodes
    assert Opcode.SPLIT not in opcodes       # no guard requested


def test_guarded_for_range_adds_split():
    b = KernelBuilder("loop")
    with b.for_range(4, guard=True):
        b.nop()
    opcodes = [i.opcode for i in b._instructions]
    assert Opcode.SPLIT in opcodes


def test_link_requires_halt_for_plain_program():
    b = KernelBuilder("nohalt")
    b.const(1)
    with pytest.raises(Exception):
        b.link()
    b.halt()
    program = b.link()
    assert program[len(program) - 1].opcode is Opcode.HALT


# ----------------------------------------------------------------------
# behavioural (executed on the simulator harness)
# ----------------------------------------------------------------------
def test_arithmetic_chain_executes_correctly():
    b = KernelBuilder("arith")
    x = b.const(3)
    y = b.const(4)
    total = x * y + 5          # 17
    as_float = total.to_float() / 2.0
    result = b.copy(as_float)
    b.halt()
    program = b.link()
    run = run_program(program, lanes=2)
    assert run.reg(result.reg, 0) == pytest.approx(8.5)
    assert run.reg(result.reg, 1) == pytest.approx(8.5)


def test_select_is_branch_free_and_correct():
    b = KernelBuilder("select")
    tid = b.csr(Csr.THREAD_ID)
    cond = tid < 2
    chosen = b.select(cond, b.const(10.0), b.const(20.0))
    result = b.copy(chosen)
    b.halt()
    run = run_program(b.link(), lanes=4)
    assert run.lane_values(result.reg) == [10.0, 10.0, 20.0, 20.0]
    assert Opcode.SPLIT not in [i.opcode for i in b._instructions]


def test_if_executes_only_on_true_lanes():
    b = KernelBuilder("if_exec")
    tid = b.csr(Csr.THREAD_ID)
    flag = b.copy(b.const(0))
    with b.if_(tid < 2):
        b.move(flag, b.const(1))
    b.halt()
    run = run_program(b.link(), lanes=4)
    assert run.lane_values(flag.reg) == [1, 1, 0, 0]


def test_if_then_else_covers_both_paths():
    b = KernelBuilder("ite")
    tid = b.csr(Csr.THREAD_ID)
    out = b.copy(b.const(0))
    b.if_then_else(
        tid < 2,
        lambda: b.move(out, b.const(100)),
        lambda: b.move(out, b.const(200)),
    )
    b.halt()
    run = run_program(b.link(), lanes=4)
    assert run.lane_values(out.reg) == [100, 100, 200, 200]


def test_if_with_uniformly_false_condition_skips_block():
    b = KernelBuilder("uniform_false")
    out = b.copy(b.const(7))
    with b.if_(b.const(0)):
        b.move(out, b.const(99))
    b.halt()
    run = run_program(b.link(), lanes=3)
    assert run.lane_values(out.reg) == [7, 7, 7]


def test_for_range_accumulates_expected_sum():
    b = KernelBuilder("loop_sum")
    total = b.copy(b.const(0))
    with b.for_range(5, guard=False) as i:
        b.move(total, total + i)
    b.halt()
    run = run_program(b.link(), lanes=2)
    assert run.reg(total.reg, 0) == 0 + 1 + 2 + 3 + 4


def test_for_range_with_zero_count_and_guard_skips_body():
    b = KernelBuilder("loop_zero")
    total = b.copy(b.const(0))
    zero = b.const(0)
    with b.for_range(zero, guard=True):
        b.move(total, b.const(99))
    b.halt()
    run = run_program(b.link(), lanes=2)
    assert run.reg(total.reg, 0) == 0


def test_for_range_with_per_lane_trip_counts_diverges_correctly():
    b = KernelBuilder("loop_div")
    tid = b.csr(Csr.THREAD_ID)          # 0, 1, 2, 3
    total = b.copy(b.const(0))
    with b.for_range(tid, guard=True):
        b.move(total, total + 1)
    b.halt()
    run = run_program(b.link(), lanes=4)
    assert run.lane_values(total.reg) == [0, 1, 2, 3]


def test_nested_loops_multiply_counts():
    b = KernelBuilder("loop_nest")
    total = b.copy(b.const(0))
    with b.for_range(3, guard=False):
        with b.for_range(4, guard=False):
            b.move(total, total + 1)
    b.halt()
    run = run_program(b.link(), lanes=1)
    assert run.reg(total.reg, 0) == 12


def test_load_and_store_roundtrip_through_memory():
    b = KernelBuilder("mem")
    base = b.const(100)
    value = b.load(base, 2)
    doubled = value * 2.0
    b.store(doubled, base, 3)
    b.halt()
    run = run_program(b.link(), lanes=1, memory={102: 21.0})
    assert run.mem(103) == pytest.approx(42.0)


def test_load_with_register_offset():
    b = KernelBuilder("mem_reg")
    base = b.const(10)
    tid = b.csr(Csr.THREAD_ID)
    value = b.load(base, tid)
    out = b.copy(value)
    b.halt()
    run = run_program(b.link(), lanes=4, memory={10: 1.0, 11: 2.0, 12: 3.0, 13: 4.0})
    assert run.lane_values(out.reg) == [1.0, 2.0, 3.0, 4.0]


def test_math_helpers_execute_correctly():
    b = KernelBuilder("math")
    x = b.const(9.0)
    root = b.sqrt(x)
    low = b.minimum(b.const(3.0), b.const(5.0))
    high = b.maximum(b.const(3.0), b.const(5.0))
    absolute = b.abs(b.const(-4))
    fma = b.fma(b.const(2.0), b.const(3.0), b.const(1.0))
    keep = [b.copy(v) for v in (root, low, high, absolute.to_float(), fma)]
    b.halt()
    run = run_program(b.link(), lanes=1)
    values = [run.reg(v.reg, 0) for v in keep]
    assert values == pytest.approx([3.0, 3.0, 5.0, 4.0, 7.0])


def test_logical_helpers():
    b = KernelBuilder("logic")
    tid = b.csr(Csr.THREAD_ID)
    both = b.logical_and(tid >= 1, tid < 3)
    keep_both = b.copy(both)
    b.halt()
    run = run_program(b.link(), lanes=4)
    assert run.lane_values(keep_both.reg) == [0, 1, 1, 0]
