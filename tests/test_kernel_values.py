"""Tests for the Value operator overloads (repro.kernels.values)."""

import pytest

from repro.isa.opcodes import Opcode
from repro.kernels.builder import KernelBuilder
from repro.kernels.values import FLOAT, INT, Value


@pytest.fixture
def builder():
    return KernelBuilder("values")


def _last_opcode(builder: KernelBuilder) -> Opcode:
    return builder._instructions[-1].opcode


def test_integer_addition_emits_add(builder):
    a = builder.const(1)
    b = builder.const(2)
    result = a + b
    assert result.dtype == INT
    assert _last_opcode(builder) is Opcode.ADD


def test_float_addition_emits_fadd(builder):
    a = builder.const(1.0)
    b = builder.const(2.0)
    result = a + b
    assert result.dtype == FLOAT
    assert _last_opcode(builder) is Opcode.FADD


def test_mixed_addition_promotes_to_float(builder):
    a = builder.const(1)
    b = builder.const(2.0)
    result = a + b
    assert result.dtype == FLOAT
    assert _last_opcode(builder) is Opcode.FADD
    # an I2F conversion must have been inserted for the integer operand
    opcodes = [i.opcode for i in builder._instructions]
    assert Opcode.I2F in opcodes


def test_python_number_operands_are_materialised(builder):
    a = builder.const(5)
    result = a + 3
    assert result.dtype == INT
    # reverse operand order works too
    result2 = 3 + a
    assert result2.dtype == INT


def test_subtraction_and_negation(builder):
    a = builder.const(5)
    b = builder.const(2)
    assert (a - b).dtype == INT
    assert _last_opcode(builder) is Opcode.SUB
    neg = -a
    assert neg.dtype == INT
    assert _last_opcode(builder) is Opcode.NEG


def test_multiplication(builder):
    a, b = builder.const(2.0), builder.const(4.0)
    _ = a * b
    assert _last_opcode(builder) is Opcode.FMUL


def test_true_division_int_uses_div(builder):
    a, b = builder.const(7), builder.const(2)
    _ = a / b
    assert _last_opcode(builder) is Opcode.DIV


def test_floor_division_requires_integers(builder):
    a, b = builder.const(7), builder.const(2)
    result = a // b
    assert result.dtype == INT
    with pytest.raises(Exception):
        _ = builder.const(7.0) // builder.const(2.0)


def test_modulo_requires_integers(builder):
    a, b = builder.const(7), builder.const(3)
    result = a % b
    assert result.dtype == INT
    assert _last_opcode(builder) is Opcode.REM


def test_comparisons_produce_int_flags(builder):
    a, b = builder.const(1.5), builder.const(2.5)
    for value in (a < b, a <= b, a > b, a >= b, a.eq(b)):
        assert value.dtype == INT


def test_eq_is_not_overloaded_for_python_equality(builder):
    a = builder.const(1)
    # __eq__ keeps identity semantics so Values can live in dicts/sets
    assert (a == a) is True
    assert (a == builder.const(2)) is False


def test_conversions(builder):
    a = builder.const(3)
    f = a.to_float()
    assert f.dtype == FLOAT
    back = f.to_int()
    assert back.dtype == INT
    # converting to the same dtype is a no-op (returns the same register)
    assert a.to_int() is a
    assert f.to_float() is f


def test_invalid_dtype_rejected(builder):
    with pytest.raises(ValueError):
        Value(builder, 0, "x")
