"""Tests for the kernel registry (repro.kernels.registry)."""

import pytest

from repro.kernels.kernel import Kernel
from repro.kernels.registry import (
    UnknownKernelError,
    get_kernel,
    register_kernel,
)
from repro.kernels.signature import BufferParam


def _make_kernel(name: str) -> Kernel:
    return Kernel(name=name, params=(BufferParam("x"),), body=lambda b, gid, args: b.nop())


def test_library_kernels_are_registered_on_import():
    for expected in ("vecadd", "relu", "saxpy", "sgemm", "knn", "gaussian",
                     "gcn_aggregate", "gcn_layer", "conv2d"):
        assert get_kernel(expected).name == expected


def test_get_kernel_returns_the_registered_object():
    kernel = get_kernel("vecadd")
    assert kernel.name == "vecadd"


def test_get_unknown_kernel_raises_with_suggestions():
    with pytest.raises(UnknownKernelError, match="vecadd"):
        get_kernel("definitely_not_a_kernel")


def test_register_duplicate_raises_unless_replace():
    kernel = _make_kernel("test_registry_dup")
    register_kernel(kernel)
    try:
        with pytest.raises(ValueError):
            register_kernel(_make_kernel("test_registry_dup"))
        replacement = _make_kernel("test_registry_dup")
        assert register_kernel(replacement, replace=True) is replacement
        assert get_kernel("test_registry_dup") is replacement
    finally:
        # keep the global registry clean for other tests
        from repro.kernels import registry as registry_module
        registry_module._REGISTRY.pop("test_registry_dup", None)
