"""Tests for program linking and validation (repro.isa.program)."""

import pytest

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program, ProgramError


def _simple_instructions():
    return [
        Instruction(Opcode.LI, dst=0, imm=1, section="init"),
        Instruction(Opcode.LI, dst=1, imm=2, section="init"),
        Instruction(Opcode.ADD, dst=2, srcs=(0, 1), section="body"),
        Instruction(Opcode.HALT, section="exit"),
    ]


def test_link_simple_program():
    program = Program.link("simple", _simple_instructions(), labels={}, num_registers=3)
    assert len(program) == 4
    assert program[2].opcode is Opcode.ADD
    assert program.num_registers == 3


def test_link_resolves_labels_to_pcs():
    instructions = [
        Instruction(Opcode.LI, dst=0, imm=0),
        Instruction(Opcode.JMP, target="end"),
        Instruction(Opcode.LI, dst=0, imm=99),
        Instruction(Opcode.HALT),
    ]
    program = Program.link("jump", instructions, labels={"end": 3}, num_registers=1)
    assert program[1].target == 3


def test_unknown_label_raises():
    instructions = [Instruction(Opcode.JMP, target="nowhere"), Instruction(Opcode.HALT)]
    with pytest.raises(ProgramError, match="unknown label"):
        Program.link("bad", instructions, labels={}, num_registers=0)


def test_empty_program_raises():
    with pytest.raises(ProgramError, match="empty"):
        Program.link("empty", [], labels={}, num_registers=0)


def test_program_without_halt_raises():
    instructions = [Instruction(Opcode.LI, dst=0, imm=1)]
    with pytest.raises(ProgramError, match="HALT"):
        Program.link("nohalt", instructions, labels={}, num_registers=1)


def test_register_out_of_range_raises():
    instructions = [Instruction(Opcode.ADD, dst=9, srcs=(0, 1)), Instruction(Opcode.HALT)]
    with pytest.raises(ProgramError, match="out of range"):
        Program.link("regs", instructions, labels={}, num_registers=2)


def test_branch_target_out_of_range_raises():
    instructions = [Instruction(Opcode.JMP, target=17), Instruction(Opcode.HALT)]
    with pytest.raises(ProgramError, match="target"):
        Program.link("far", instructions, labels={}, num_registers=0)


def test_split_requires_both_targets():
    instructions = [
        Instruction(Opcode.LI, dst=0, imm=1),
        Instruction(Opcode.SPLIT, srcs=(0,), target=2),
        Instruction(Opcode.HALT),
    ]
    with pytest.raises(ProgramError, match="SPLIT"):
        Program.link("split", instructions, labels={}, num_registers=1)


def test_sections_property_matches_instructions():
    program = Program.link("sections", _simple_instructions(), labels={}, num_registers=3)
    assert program.sections == ("init", "init", "body", "exit")


def test_disassemble_lists_every_instruction_and_labels():
    instructions = [
        Instruction(Opcode.LI, dst=0, imm=0),
        Instruction(Opcode.JMP, target="end"),
        Instruction(Opcode.HALT),
    ]
    program = Program.link("disasm", instructions, labels={"end": 2}, num_registers=1)
    text = program.disassemble()
    assert "end:" in text
    assert text.count("\n") >= 3
    assert "jmp" in text


def test_program_iteration_and_indexing():
    program = Program.link("iter", _simple_instructions(), labels={}, num_registers=3)
    opcodes = [instr.opcode for instr in program]
    assert opcodes[-1] is Opcode.HALT
    assert program[0].opcode is Opcode.LI
