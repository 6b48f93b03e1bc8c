"""Kernel DSL and the paper's kernel library.

Kernels are written against a small builder DSL (:class:`KernelBuilder`) that
plays the role of OpenCL C + the POCL compiler in the original work: a kernel
describes the computation of *one work-item* as a function of its global id,
and the runtime wraps it in the Vortex-style workgroup loop
(:func:`build_workgroup_program`).

The library subpackage provides the nine workloads evaluated in the paper:
``vecadd``, ``relu``, ``saxpy``, ``sgemm``, ``knn``, ``gaussian`` (blur
filter), ``gcn_aggregate``, ``gcn_layer`` and ``conv2d`` (the ResNet20 layer).
"""

from repro.kernels.builder import BuildError, KernelBuilder
from repro.kernels.kernel import Kernel, KernelArgumentError
from repro.kernels.registry import get_kernel, register_kernel
from repro.kernels.signature import BufferParam, ScalarParam
from repro.kernels.values import Value
from repro.kernels.wrapper import build_workgroup_program

# Importing the library registers every kernel with the registry.
from repro.kernels import library as _library  # noqa: F401  (side-effect import)

__all__ = [
    "BufferParam",
    "BuildError",
    "Kernel",
    "KernelArgumentError",
    "KernelBuilder",
    "ScalarParam",
    "Value",
    "build_workgroup_program",
    "get_kernel",
    "register_kernel",
]
