"""Device abstraction.

A :class:`Device` bundles the simulated GPU, its memory allocator and the
hardware-property queries the paper's runtime technique relies on
(``hardware_parallelism`` in particular).  It is the object host code talks
to: allocate buffers, upload data, launch kernels, read results back.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

import numpy as np

from repro.runtime.buffers import Buffer, BufferAllocator
from repro.sim.config import ArchConfig
from repro.sim.gpu import DEFAULT_MEMORY_WORDS, Gpu


class Device:
    """A simulated Vortex-like GPGPU plus its host-side bookkeeping."""

    def __init__(self, config: Union[ArchConfig, str], memory_words: int = DEFAULT_MEMORY_WORDS,
                 tracer=None, engine: Optional[str] = None):
        if isinstance(config, str):
            config = ArchConfig.from_name(config)
        self.config = config
        self.gpu = Gpu(config, memory_words=memory_words, tracer=tracer, engine=engine)
        self.allocator = BufferAllocator(self.gpu.memory, alignment_words=config.l1_line_words)

    # ------------------------------------------------------------------ hardware queries
    @property
    def engine(self) -> str:
        """Simulation engine driving this device (``"fast"`` by default,
        ``"reference"`` -- the oracle -- or ``"batch"``).

        All engines produce bit-identical results (cycles, counters, output
        buffers); ``fast`` and ``batch`` are simply quicker.  See
        :mod:`repro.sim.engine`.
        """
        return self.gpu.engine

    @property
    def hardware_parallelism(self) -> int:
        """``hp = cores * warps * threads`` -- the runtime query behind Eq. 1."""
        return self.config.hardware_parallelism

    @property
    def name(self) -> str:
        """Configuration name in the paper's ``<c>c<w>w<t>t`` scheme."""
        return self.config.name

    def describe(self) -> str:
        """Multi-line description of the device."""
        return self.config.describe()

    # ------------------------------------------------------------------ memory management
    def allocate(self, size_words: int, name: str = "buffer") -> Buffer:
        """Reserve uninitialised device memory."""
        return self.allocator.allocate(size_words, name=name)

    def upload(self, data: np.ndarray, name: str = "buffer") -> Buffer:
        """Copy a host array to a fresh device buffer."""
        return self.allocator.upload(data, name=name)

    def download(self, buffer: Buffer, shape: Optional[tuple] = None) -> np.ndarray:
        """Copy a device buffer back to the host."""
        return self.allocator.download(buffer, shape=shape)

    def reset_memory(self) -> None:
        """Release every allocation and invalidate the caches."""
        self.allocator.reset()
        self.gpu.reset_memory_system()

    # ------------------------------------------------------------------ execution
    def launch(self, kernel, arguments: Mapping[str, object], global_size,
               local_size: Optional[int] = None, **kwargs):
        """Launch ``kernel``; see :func:`repro.runtime.launcher.launch_kernel`.

        ``local_size=None`` selects the paper's hardware-aware mapping at
        runtime (Equation 1).
        """
        from repro.runtime.launcher import launch_kernel  # deferred to avoid import cycle
        return launch_kernel(self, kernel, arguments, global_size,
                             local_size=local_size, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"Device({self.name}, hp={self.hardware_parallelism})"
