"""ND-range decomposition.

OpenCL kernels are launched over an N-dimensional index space (the *global
work size*, ``gws``) subdivided into workgroups of *local work size* ``lws``.
On Vortex the runtime flattens the space and hands each hardware thread one
workgroup, which it iterates over sequentially; the paper's technique chooses
the flattened ``lws``.  :class:`NDRange` performs the flattening, validation
and workgroup bookkeeping used by the dispatcher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

from repro.runtime.errors import LaunchError

SizeLike = Union[int, Sequence[int]]


def _as_tuple(size: SizeLike) -> Tuple[int, ...]:
    if isinstance(size, int):
        dims: Tuple[int, ...] = (size,)
    else:
        dims = tuple(int(d) for d in size)
    if not dims or len(dims) > 3:
        raise LaunchError(f"work size must have 1 to 3 dimensions, got {dims!r}")
    if any(d < 1 for d in dims):
        raise LaunchError(f"work-size dimensions must be positive, got {dims!r}")
    return dims


@dataclass(frozen=True)
class NDRange:
    """A validated launch geometry.

    ``global_size`` may be 1-, 2- or 3-dimensional (it is flattened row-major
    for dispatch); ``local_size`` is the flattened workgroup size -- the lws
    parameter the paper optimises.
    """

    global_dims: Tuple[int, ...]
    local_size: int

    def __init__(self, global_size: SizeLike, local_size: int):
        dims = _as_tuple(global_size)
        local = int(local_size)
        if local < 1:
            raise LaunchError(f"local_size must be >= 1, got {local_size!r}")
        total = math.prod(dims)
        if local > total:
            # A workgroup larger than the whole index space behaves like one
            # group containing everything (OpenCL would reject it; the Vortex
            # runtime clamps, and clamping keeps sweeps simple).
            local = total
        object.__setattr__(self, "global_dims", dims)
        object.__setattr__(self, "local_size", local)
        # Dispatch queries these once per workgroup; precompute them.
        object.__setattr__(self, "_total", total)
        object.__setattr__(self, "_num_wg", math.ceil(total / local))

    # ------------------------------------------------------------------
    @property
    def global_size(self) -> int:
        """Flattened global work size (``gws``)."""
        return self._total

    @property
    def num_workgroups(self) -> int:
        """Number of workgroups the launch decomposes into."""
        return self._num_wg

    def workgroup_size(self, workgroup_id: int) -> int:
        """Number of work-items in ``workgroup_id`` (the last group may be partial)."""
        if not (0 <= workgroup_id < self.num_workgroups):
            raise LaunchError(
                f"workgroup {workgroup_id} out of range (launch has {self.num_workgroups})"
            )
        if workgroup_id < self.num_workgroups - 1:
            return self.local_size
        return self.global_size - self.local_size * (self.num_workgroups - 1)

    def __str__(self) -> str:  # pragma: no cover - convenience
        dims = "x".join(str(d) for d in self.global_dims)
        return f"NDRange(gws={dims} ({self.global_size}), lws={self.local_size})"
