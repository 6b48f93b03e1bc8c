"""Tests for the opcode tables (repro.isa.opcodes)."""

import pytest

from repro.isa.opcodes import (
    OP_CLASS,
    OpClass,
    Opcode,
    WRITEBACK_OPS,
    op_class,
    writes_register,
)


def test_every_opcode_has_a_class():
    for opcode in Opcode:
        assert opcode in OP_CLASS
        assert isinstance(op_class(opcode), OpClass)


def test_memory_ops_are_exactly_load_and_store():
    memory = {op for op, cls in OP_CLASS.items() if cls is OpClass.MEMORY}
    assert memory == {Opcode.LOAD, Opcode.STORE}


def test_control_ops_include_branching_instructions():
    for opcode in (Opcode.JMP, Opcode.SPLIT, Opcode.JOIN, Opcode.LOOP_BEGIN,
                   Opcode.LOOP_END):
        assert op_class(opcode) is OpClass.CONTROL
    assert op_class(Opcode.FMA) is not OpClass.CONTROL


def test_writeback_classification():
    assert writes_register(Opcode.ADD)
    assert writes_register(Opcode.LOAD)
    assert writes_register(Opcode.CSRR)
    assert writes_register(Opcode.FMA)
    assert not writes_register(Opcode.STORE)
    assert not writes_register(Opcode.JMP)
    assert not writes_register(Opcode.BAR)
    assert not writes_register(Opcode.HALT)


def test_alu_and_float_opcodes_classified_correctly():
    assert op_class(Opcode.ADD) is OpClass.INT_ALU
    assert op_class(Opcode.MUL) is OpClass.INT_MUL
    assert op_class(Opcode.FADD) is OpClass.FLOAT
    assert op_class(Opcode.FDIV) is OpClass.SFU
    assert op_class(Opcode.FSQRT) is OpClass.SFU
    assert op_class(Opcode.LOAD) is OpClass.MEMORY
    assert op_class(Opcode.CSRR) is OpClass.SIMT
    assert op_class(Opcode.NOP) is OpClass.PSEUDO


def test_writeback_ops_subset_consistency():
    # Every op that writes a register must be an ALU/FPU/SFU op, a load or a CSR read.
    for opcode in WRITEBACK_OPS:
        assert op_class(opcode) in (
            OpClass.INT_ALU, OpClass.INT_MUL, OpClass.FLOAT, OpClass.SFU,
            OpClass.MEMORY, OpClass.SIMT,
        )


def test_opcode_values_are_unique():
    values = [opcode.value for opcode in Opcode]
    assert len(values) == len(set(values))
