"""OpenCL-flavoured host API.

A thin convenience layer over :class:`~repro.runtime.device.Device` and
:func:`~repro.runtime.launcher.launch_kernel` mirroring the host-side objects
OpenCL programs use (context, command queue, ND-range enqueue).  The crucial
difference to stock OpenCL -- and the point of the paper -- is that
``enqueue_nd_range`` may be called *without* a local work size: the runtime
then derives it from the device's micro-architecture parameters (Equation 1)
instead of forcing the programmer to guess one.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

import numpy as np

from repro.kernels.kernel import Kernel
from repro.kernels.registry import get_kernel
from repro.runtime.buffers import Buffer
from repro.runtime.device import Device
from repro.runtime.launcher import LaunchResult, launch_kernel
from repro.sim.config import ArchConfig


class Context:
    """Owns a device and its buffers (the OpenCL ``cl_context`` analogue)."""

    def __init__(self, config: Union[ArchConfig, str, Device]):
        self.device = config if isinstance(config, Device) else Device(config)

    def buffer(self, data: np.ndarray, name: str = "buffer") -> Buffer:
        """Upload ``data`` and return the device buffer."""
        return self.device.upload(data, name=name)

    def queue(self) -> "CommandQueue":
        """Create a command queue on this context's device."""
        return CommandQueue(self)


class CommandQueue:
    """Submits kernel launches to a context's device (``cl_command_queue`` analogue)."""

    def __init__(self, context: Context):
        self.context = context
        self.history: list[LaunchResult] = []

    @property
    def device(self) -> Device:
        """The device this queue submits to."""
        return self.context.device

    def enqueue_nd_range(self, kernel: Union[Kernel, str], arguments: Mapping[str, object],
                         global_size, local_size: Optional[int] = None,
                         **kwargs) -> LaunchResult:
        """Launch a kernel over ``global_size`` work-items.

        ``local_size=None`` (the default) lets the runtime choose the
        hardware-aware mapping; passing an integer reproduces the
        hardware-agnostic behaviour of a conventional OpenCL host program.
        """
        if isinstance(kernel, str):
            kernel = get_kernel(kernel)
        result = launch_kernel(self.device, kernel, arguments, global_size,
                               local_size=local_size, **kwargs)
        self.history.append(result)
        return result
