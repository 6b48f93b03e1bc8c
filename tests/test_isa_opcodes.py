"""Tests for the opcode table (repro.isa.opcodes.OPS)."""

import itertools

import numpy as np
import pytest

from repro.isa.opcodes import OPS, OpClass, Opcode

ARITHMETIC = (OpClass.INT_ALU, OpClass.INT_MUL, OpClass.FLOAT, OpClass.SFU)


def test_every_opcode_has_a_class():
    for opcode in Opcode:
        assert isinstance(OPS[opcode].cls, OpClass)


def test_every_opcode_has_one_row():
    assert set(OPS) == set(Opcode)
    for opcode, spec in OPS.items():
        if spec.cls in ARITHMETIC:
            assert spec.lane is not None, opcode
        if spec.rows is not None:
            assert spec.lane is not None, opcode


def test_memory_ops_are_exactly_load_and_store():
    memory = {op for op, spec in OPS.items() if spec.cls is OpClass.MEMORY}
    assert memory == {Opcode.LOAD, Opcode.STORE}


def test_control_ops_include_branching_instructions():
    for opcode in (Opcode.JMP, Opcode.SPLIT, Opcode.JOIN, Opcode.LOOP_BEGIN,
                   Opcode.LOOP_END):
        assert OPS[opcode].cls is OpClass.CONTROL
    assert OPS[Opcode.FMA].cls is not OpClass.CONTROL


def test_writeback_classification():
    for opcode in (Opcode.ADD, Opcode.LOAD, Opcode.CSRR, Opcode.FMA):
        assert OPS[opcode].writes, opcode
    for opcode in (Opcode.STORE, Opcode.JMP, Opcode.BAR, Opcode.HALT):
        assert not OPS[opcode].writes, opcode


def test_alu_and_float_opcodes_classified_correctly():
    assert OPS[Opcode.ADD].cls is OpClass.INT_ALU
    assert OPS[Opcode.MUL].cls is OpClass.INT_MUL
    assert OPS[Opcode.FADD].cls is OpClass.FLOAT
    assert OPS[Opcode.FDIV].cls is OpClass.SFU
    assert OPS[Opcode.FSQRT].cls is OpClass.SFU
    assert OPS[Opcode.LOAD].cls is OpClass.MEMORY
    assert OPS[Opcode.CSRR].cls is OpClass.SIMT
    assert OPS[Opcode.NOP].cls is OpClass.PSEUDO


def test_writeback_ops_subset_consistency():
    # Every op that writes a register is an arithmetic op, a load or a CSR read.
    for opcode, spec in OPS.items():
        if spec.writes:
            assert spec.cls in ARITHMETIC or opcode in (Opcode.LOAD, Opcode.CSRR)


def test_opcode_values_are_unique():
    values = [opcode.value for opcode in Opcode]
    assert len(values) == len(set(values))


#: Float64 edge values: signed zeros, small integers and fractions, a shift
#: count, the int64 limit, a near-overflow magnitude, NaN and both infinities.
EDGES = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 62.0, 2.0 ** 63, 1e308,
         float("nan"), float("inf"), float("-inf")]


def _bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@pytest.mark.parametrize("opcode", [op for op, spec in OPS.items() if spec.rows is not None],
                         ids=lambda op: op.name)
def test_row_forms_match_lane_forms(opcode):
    """A ``rows`` form equals its ``lane`` form bit for bit on every input
    tuple of the edge grid and raises nothing, full-width and divergent.

    IEEE overflow and invalid flags are not errors: the lane form (Python
    floats) returns inf/NaN for them silently, and so must the row form.
    """
    spec = OPS[opcode]
    operands = [np.array(column)
                for column in zip(*itertools.product(EDGES, repeat=spec.srcs))]
    expected = [spec.lane(*map(float, args)) for args in zip(*operands)]
    sel = np.arange(len(expected)) % 3 != 1
    with np.errstate(divide="raise", over="ignore", under="ignore", invalid="ignore"):
        full = spec.rows(*operands)
        # the fast engine's divergent path: the selected lanes only
        gathered = spec.rows(*[column[sel] for column in operands])
        # the batch engine's: every lane, then a masked copy of the active ones
        masked = np.full(len(expected), 7.0)
        np.copyto(masked, spec.rows(*operands), where=sel)
    assert _bits(full) == _bits(expected)
    assert _bits(gathered) == _bits(np.asarray(expected)[sel])
    assert _bits(masked) == _bits(np.where(sel, expected, 7.0))
