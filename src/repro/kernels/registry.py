"""Kernel registry.

The experiment harness and the examples refer to kernels by name
(``"vecadd"``, ``"sgemm"``...); the registry is the single lookup point.
Library kernels register themselves at import time; user code can register
additional kernels with :func:`register_kernel`.
"""

from __future__ import annotations

from typing import Dict

from repro.kernels.kernel import Kernel

_REGISTRY: Dict[str, Kernel] = {}


class UnknownKernelError(KeyError):
    """Raised when looking up a kernel name that was never registered."""


def register_kernel(kernel: Kernel, replace: bool = False) -> Kernel:
    """Add ``kernel`` to the registry and return it.

    Registering the same name twice raises unless ``replace=True``.
    """
    if kernel.name in _REGISTRY and not replace:
        raise ValueError(f"kernel {kernel.name!r} is already registered")
    _REGISTRY[kernel.name] = kernel
    return kernel


def get_kernel(name: str) -> Kernel:
    """Return the kernel registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise UnknownKernelError(f"unknown kernel {name!r}; known kernels: {known}") from None
