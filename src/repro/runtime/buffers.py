"""Device buffers and the bump allocator.

Buffers live in the simulated GPU's word-addressed memory.  The allocator is
a simple cache-line-aligned bump allocator -- launches in this project are
short-lived experiment runs, so freeing is wholesale (``reset``) rather than
per-buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.runtime.errors import AllocationError
from repro.sim.memory.mainmem import MainMemory


@dataclass(frozen=True)
class Buffer:
    """A contiguous region of device memory."""

    name: str
    address: int          # first word
    size_words: int

    @property
    def end(self) -> int:
        """One past the last word."""
        return self.address + self.size_words


class BufferAllocator:
    """Cache-line-aligned bump allocator over a :class:`MainMemory`."""

    def __init__(self, memory: MainMemory, alignment_words: int = 16):
        if alignment_words < 1:
            raise ValueError("alignment must be positive")
        self._memory = memory
        self._alignment = alignment_words
        self._next_free = 0

    # ------------------------------------------------------------------
    @property
    def allocated_words(self) -> int:
        """Words handed out so far (including alignment padding)."""
        return self._next_free

    def reset(self) -> None:
        """Free every buffer (the memory contents are left untouched)."""
        self._next_free = 0

    # ------------------------------------------------------------------
    def allocate(self, size_words: int, name: str = "buffer") -> Buffer:
        """Reserve ``size_words`` words; raises :class:`AllocationError` when full."""
        if size_words <= 0:
            raise AllocationError(f"cannot allocate {size_words} words for {name!r}")
        aligned = -(-self._next_free // self._alignment) * self._alignment
        if aligned + size_words > self._memory.size_words:
            raise AllocationError(
                f"device memory exhausted: need {size_words} words for {name!r}, "
                f"{self._memory.size_words - aligned} available"
            )
        buffer = Buffer(name=name, address=aligned, size_words=size_words)
        self._next_free = aligned + size_words
        return buffer

    def upload(self, data: np.ndarray, name: str = "buffer") -> Buffer:
        """Allocate a buffer sized for ``data`` and copy it to the device.

        Empty arrays are legal (e.g. the edge list of a graph with no edges):
        they receive a one-word placeholder allocation so the kernel still has
        a valid base address.
        """
        flat = np.asarray(data, dtype=np.float64).ravel()
        buffer = self.allocate(max(1, len(flat)), name=name)
        if len(flat):
            self._memory.write_block(buffer.address, flat)
        return buffer

    def download(self, buffer: Buffer, shape: Optional[tuple] = None) -> np.ndarray:
        """Copy a buffer back to the host, optionally reshaping it."""
        data = self._memory.read_block(buffer.address, buffer.size_words)
        if shape is not None:
            data = data.reshape(shape)
        return data

    def zero(self, buffer: Buffer) -> None:
        """Clear a buffer's contents."""
        self._memory.fill(buffer.address, buffer.size_words, 0.0)
