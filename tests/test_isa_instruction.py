"""Tests for the Instruction representation (repro.isa.instruction)."""

import pytest

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass, Opcode


def test_basic_alu_instruction():
    instr = Instruction(Opcode.ADD, dst=2, srcs=(0, 1))
    assert instr.reads() == (0, 1)
    assert instr.writes() == (2,)
    assert instr.op_class is OpClass.INT_ALU


def test_missing_destination_raises():
    with pytest.raises(ValueError):
        Instruction(Opcode.ADD, srcs=(0, 1))


def test_unexpected_destination_raises():
    with pytest.raises(ValueError):
        Instruction(Opcode.STORE, dst=3, srcs=(0, 1))


def test_store_has_no_writes():
    instr = Instruction(Opcode.STORE, srcs=(4, 5), imm=2)
    assert instr.writes() == ()
    assert instr.reads() == (4, 5)


def test_with_section_returns_tagged_copy():
    instr = Instruction(Opcode.FMA, dst=0, srcs=(1, 2, 3))
    tagged = instr.with_section("mac")
    assert tagged.section == "mac"
    assert instr.section == "body"          # original unchanged (frozen dataclass)
    assert tagged.opcode is Opcode.FMA


def test_with_targets_resolves_labels():
    instr = Instruction(Opcode.SPLIT, srcs=(0,), target="else_1", target2="join_1")
    resolved = instr.with_targets(10, 20)
    assert resolved.target == 10
    assert resolved.target2 == 20


def test_disassembly_contains_operands_and_immediates():
    instr = Instruction(Opcode.LOAD, dst=7, srcs=(3,), imm=4, comment="x[i]")
    text = instr.disassemble()
    assert "load" in text
    assert "r7" in text and "r3" in text
    assert "4" in text
    assert "x[i]" in text


def test_disassembly_of_float_immediate():
    instr = Instruction(Opcode.LI, dst=0, imm=0.5)
    assert "0.5" in instr.disassemble()


def test_disassembly_of_branch_targets():
    instr = Instruction(Opcode.JMP, target="loop_3")
    assert "@loop_3" in instr.disassemble()


@pytest.mark.parametrize("opcode, dst, srcs", [
    (Opcode.ADD, 2, (0,)),          # binary with one source
    (Opcode.FMA, 2, (0, 1)),        # ternary with two
    (Opcode.FSQRT, 2, (0, 1)),      # unary with two
    (Opcode.LI, 2, (0,)),           # immediate with a source
    (Opcode.STORE, None, (0,)),     # store without its address register
    (Opcode.HALT, None, (0,)),
], ids=lambda value: value.name if isinstance(value, Opcode) else "")
def test_wrong_source_count_is_rejected_at_construction(opcode, dst, srcs):
    """Every engine would otherwise fail differently on it, and only once
    the bad PC issues."""
    with pytest.raises(ValueError, match=opcode.name):
        Instruction(opcode, dst=dst, srcs=srcs)
