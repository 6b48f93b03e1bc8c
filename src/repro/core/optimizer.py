"""Equation 1: the runtime, hardware-aware local-work-size choice.

The paper derives the optimal ``local_work_size`` as

.. math::

    lws = \\frac{gws}{hp}, \\qquad hp = cores \\times warps \\times threads

so that the number of software workgroups exactly matches the number of
hardware lanes: a single kernel call with every lane busy.  Two practical
details matter when ``gws`` is not a multiple of ``hp``:

* the division must round *up* -- rounding down would create more workgroups
  than lanes and silently fall back into the multiple-call regime;
* when the machine is larger than the problem (``hp >= gws``) the formula
  degenerates to ``lws = 1``: every work-item becomes its own workgroup and
  utilisation is bounded by the problem, not the mapping (the "peaks around 0"
  the paper notes on the yellow side of its violin plots).

Everything here is integer arithmetic on values available at runtime (the
device query and the launch size), which is what makes the technique a
*runtime* mapping decision that needs no programmer input and no recompilation.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

from repro.sim.config import ArchConfig


def hardware_parallelism(config: Union[ArchConfig, int]) -> int:
    """Return ``hp = cores * warps * threads`` for a config (or pass an int through)."""
    if isinstance(config, int):
        if config < 1:
            raise ValueError(f"hardware parallelism must be positive, got {config}")
        return config
    return config.hardware_parallelism


def optimal_local_size(global_size: int, config: Union[ArchConfig, int]) -> int:
    """Equation 1 of the paper: the lws that fills the machine with one kernel call.

    Parameters
    ----------
    global_size:
        Flattened global work size of the launch (``gws``).
    config:
        Either an :class:`~repro.sim.config.ArchConfig` or the hardware
        parallelism ``hp`` directly.

    Returns
    -------
    int
        ``max(1, ceil(gws / hp))``.
    """
    if global_size < 1:
        raise ValueError(f"global size must be positive, got {global_size}")
    hp = hardware_parallelism(config)
    return max(1, math.ceil(global_size / hp))


def candidate_set(global_size: int, config: Union[ArchConfig, int]) -> Tuple[int, ...]:
    """The lws values an exhaustive search tries, ascending: every power of
    two below ``gws``, ``gws`` itself and the Eq.-1 value.

    The set is logarithmic in ``gws`` (no registered problem at any scale
    yields more than 19 values on any of the 450 paper machines), so it is
    searched whole.
    """
    candidates = {global_size, optimal_local_size(global_size, config)}
    value = 1
    while value < global_size:
        candidates.add(value)
        value *= 2
    return tuple(sorted(candidates))


def workgroups_for(global_size: int, local_size: int) -> int:
    """Number of workgroups a launch decomposes into."""
    if local_size < 1:
        raise ValueError(f"local size must be positive, got {local_size}")
    return math.ceil(global_size / local_size)


def kernel_calls_for(global_size: int, local_size: int, config: Union[ArchConfig, int]) -> int:
    """Number of sequential kernel calls the Vortex runtime will issue."""
    hp = hardware_parallelism(config)
    return math.ceil(workgroups_for(global_size, local_size) / hp)


def lane_utilization_for(global_size: int, local_size: int,
                         config: Union[ArchConfig, int]) -> float:
    """Average fraction of hardware lanes that receive a workgroup per call."""
    hp = hardware_parallelism(config)
    workgroups = workgroups_for(global_size, local_size)
    calls = math.ceil(workgroups / hp)
    return workgroups / (calls * hp)
