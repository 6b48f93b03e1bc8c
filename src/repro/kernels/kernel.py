"""Kernel abstraction.

A :class:`Kernel` is the DSL equivalent of an OpenCL kernel: a name, a
signature and a body function describing the work of a single work-item.  The
body receives the builder, the work-item's flattened global id and a mapping
from parameter name to :class:`~repro.kernels.values.Value` (buffer base
addresses and scalar arguments already loaded from the argument CSRs).

Kernels do not know anything about the local work size: the runtime wraps the
body in the Vortex/POCL workgroup loop (see
:func:`repro.kernels.wrapper.build_workgroup_program`), which is exactly the
mechanism whose parameters the paper optimises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Tuple

from repro.kernels.builder import KernelBuilder
from repro.kernels.signature import BufferParam, KernelParam, validate_signature
from repro.kernels.values import Value

#: Signature of a kernel body: ``body(builder, gid, args)``.
KernelBody = Callable[[KernelBuilder, Value, Mapping[str, Value]], None]


class KernelArgumentError(ValueError):
    """Raised when host-side arguments do not match a kernel's signature."""


@dataclass(frozen=True)
class Kernel:
    """A device kernel: name, parameters and per-work-item body.

    Parameters
    ----------
    name:
        Unique kernel name (used by the registry and in traces).
    params:
        Ordered parameter declarations.
    body:
        Function emitting the per-work-item computation.
    description:
        One-line human readable description (used in reports).
    tags:
        Free-form labels, e.g. ``("math",)`` or ``("ml", "gcn")`` -- the
        experiment harness groups kernels by these the way the paper groups
        "math kernels" vs ML layers.
    """

    name: str
    params: Tuple[KernelParam, ...]
    body: KernelBody
    description: str = ""
    tags: Tuple[str, ...] = ()

    def __post_init__(self):
        validate_signature(self.params)

    # ------------------------------------------------------------------
    @property
    def buffer_params(self) -> Tuple[BufferParam, ...]:
        """Buffer parameters in declaration order."""
        return tuple(p for p in self.params if isinstance(p, BufferParam))

    def check_arguments(self, arguments: Mapping[str, object]) -> None:
        """Validate that ``arguments`` provides every declared parameter.

        Raises :class:`KernelArgumentError` listing missing or unexpected
        names so host code gets an actionable message.
        """
        expected = {p.name for p in self.params}
        provided = set(arguments)
        missing = sorted(expected - provided)
        unexpected = sorted(provided - expected)
        if missing or unexpected:
            raise KernelArgumentError(
                f"kernel {self.name!r}: missing arguments {missing}, unexpected {unexpected}"
            )

    # ------------------------------------------------------------------
    def emit_argument_loads(self, builder: KernelBuilder) -> Dict[str, Value]:
        """Read every parameter from the argument CSR window.

        Returns a mapping from parameter name to the loaded value; called by
        the workgroup wrapper before entering the work-item loop so arguments
        are read once per kernel call rather than once per work-item.
        """
        values: Dict[str, Value] = {}
        for slot, param in enumerate(self.params):
            values[param.name] = builder.kernel_arg(slot, dtype=param.dtype)
        return values

    def emit_body(self, builder: KernelBuilder, gid: Value, args: Mapping[str, Value]) -> None:
        """Emit the per-work-item computation into ``builder``."""
        self.body(builder, gid, args)

    def __str__(self) -> str:  # pragma: no cover - convenience
        params = ", ".join(f"{type(p).__name__}({p.name})" for p in self.params)
        return f"Kernel({self.name}: {params})"
