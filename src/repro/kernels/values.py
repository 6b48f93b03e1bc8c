"""SSA-style value handles used by the kernel builder.

A :class:`Value` wraps a virtual register together with its element type
(``"i"`` for integers, ``"f"`` for floats) and the builder that created it.
Arithmetic and comparison operators emit instructions into the owning builder,
so kernels read like ordinary Python arithmetic::

    y = a * x + b          # emits MUL/FMA + ADD depending on dtypes
    inside = gid < n       # emits SLT producing a 0/1 integer value
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.builder import KernelBuilder

Number = Union[int, float]

INT = "i"
FLOAT = "f"


class Value:
    """A handle to a virtual register with a known element type."""

    __slots__ = ("builder", "reg", "dtype")

    def __init__(self, builder: "KernelBuilder", reg: int, dtype: str):
        if dtype not in (INT, FLOAT):
            raise ValueError(f"dtype must be 'i' or 'f', got {dtype!r}")
        self.builder = builder
        self.reg = reg
        self.dtype = dtype

    # ------------------------------------------------------------ helpers
    def _coerce(self, other: Union["Value", Number]) -> "Value":
        if isinstance(other, Value):
            return other
        return self.builder.const(other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Value(r{self.reg}:{self.dtype})"

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other): return self.builder.add(self, self._coerce(other))
    def __radd__(self, other): return self.builder.add(self._coerce(other), self)
    def __sub__(self, other): return self.builder.sub(self, self._coerce(other))
    def __rsub__(self, other): return self.builder.sub(self._coerce(other), self)
    def __mul__(self, other): return self.builder.mul(self, self._coerce(other))
    def __rmul__(self, other): return self.builder.mul(self._coerce(other), self)
    def __truediv__(self, other): return self.builder.div(self, self._coerce(other))
    def __rtruediv__(self, other): return self.builder.div(self._coerce(other), self)
    def __floordiv__(self, other): return self.builder.idiv(self, self._coerce(other))
    def __rfloordiv__(self, other): return self.builder.idiv(self._coerce(other), self)
    def __mod__(self, other): return self.builder.rem(self, self._coerce(other))
    def __rmod__(self, other): return self.builder.rem(self._coerce(other), self)
    def __neg__(self): return self.builder.neg(self)

    # ------------------------------------------------------------ comparisons
    def __lt__(self, other): return self.builder.lt(self, self._coerce(other))
    def __le__(self, other): return self.builder.le(self, self._coerce(other))
    def __gt__(self, other): return self.builder.lt(self._coerce(other), self)
    def __ge__(self, other): return self.builder.le(self._coerce(other), self)

    def eq(self, other) -> "Value":
        """Equality comparison producing a 0/1 integer value.

        ``__eq__`` is intentionally not overloaded so Values keep normal
        hashing/identity semantics inside Python containers.
        """
        return self.builder.cmp_eq(self, self._coerce(other))

    # ------------------------------------------------------------ conversions
    def to_float(self) -> "Value":
        """Convert to a float value (no-op if already float)."""
        return self.builder.to_float(self)

    def to_int(self) -> "Value":
        """Truncate to an integer value (no-op if already int)."""
        return self.builder.to_int(self)
