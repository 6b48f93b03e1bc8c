"""Tests for kernel signatures (repro.kernels.signature) and the Kernel class."""

import pytest

from repro.kernels.builder import KernelBuilder
from repro.kernels.kernel import Kernel, KernelArgumentError
from repro.kernels.signature import BufferParam, ScalarParam, validate_signature
from repro.kernels.values import FLOAT, INT


def _noop_body(builder, gid, args):
    builder.nop()


def test_buffer_param_is_integer_typed():
    assert BufferParam("x").dtype == INT
    assert BufferParam("out", writable=True).writable


def test_scalar_param_kinds():
    assert ScalarParam("n", kind=INT).dtype == INT
    assert ScalarParam("alpha", kind=FLOAT).dtype == FLOAT
    with pytest.raises(ValueError):
        ScalarParam("bad", kind="z")


def test_validate_signature_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        validate_signature((BufferParam("x"), ScalarParam("x")))


def test_validate_signature_rejects_empty_names():
    with pytest.raises(ValueError, match="name"):
        validate_signature((BufferParam(""),))


def test_kernel_param_accessors():
    kernel = Kernel(
        name="k", params=(BufferParam("a"), BufferParam("out", writable=True),
                          ScalarParam("n", kind=INT)),
        body=_noop_body,
    )
    assert [p.name for p in kernel.buffer_params] == ["a", "out"]


def test_kernel_check_arguments_reports_missing_and_unexpected():
    kernel = Kernel(name="k", params=(BufferParam("a"), ScalarParam("n")), body=_noop_body)
    kernel.check_arguments({"a": object(), "n": 1})
    with pytest.raises(KernelArgumentError) as err:
        kernel.check_arguments({"a": object(), "typo": 1})
    assert "missing" in str(err.value)
    assert "n" in str(err.value)
    assert "typo" in str(err.value)


def test_kernel_emit_argument_loads_reads_each_slot_once():
    kernel = Kernel(
        name="k", params=(BufferParam("a"), BufferParam("b"), ScalarParam("s", kind=FLOAT)),
        body=_noop_body,
    )
    builder = KernelBuilder("k_args")
    values = kernel.emit_argument_loads(builder)
    assert set(values) == {"a", "b", "s"}
    assert values["a"].dtype == INT
    assert values["s"].dtype == FLOAT
    # one CSRR per parameter
    from repro.isa.opcodes import Opcode
    csrr_count = sum(1 for i in builder._instructions if i.opcode is Opcode.CSRR)
    assert csrr_count == 3


def test_duplicate_kernel_params_rejected_at_construction():
    with pytest.raises(ValueError):
        Kernel(name="bad", params=(BufferParam("a"), BufferParam("a")), body=_noop_body)
