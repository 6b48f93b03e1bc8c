"""Mapping strategies: the paper's technique and the baselines it is compared to.

A :class:`MappingStrategy` turns a (global work size, machine) pair into a
``local_work_size``.  The paper's Figure 2 compares three of them:

* :class:`NaiveMapping` -- ``lws = 1``: never unroll the kernel temporally over
  one thread; every work-item is its own workgroup.
* :class:`FixedMapping` -- a hardware-agnostic constant, ``lws = 32`` in the
  paper (the habit inherited from warp-sized workgroups on discrete GPUs).
* :class:`HardwareAwareMapping` -- the paper's Equation 1, evaluated at
  runtime from the device's micro-architecture parameters.

The ``lws-search`` scenario runs every candidate lws through the planner and
checks Eq. 1 against the best of them.
"""

from __future__ import annotations

import abc
from typing import Dict, Tuple, Union

from repro.core.optimizer import optimal_local_size
from repro.sim.config import ArchConfig


class MappingStrategy(abc.ABC):
    """Chooses the local work size for a launch."""

    #: Short identifier used in reports, result tables and the CLI of benches.
    name: str = "strategy"

    @abc.abstractmethod
    def select_local_size(self, global_size: int, config: ArchConfig) -> int:
        """Return the lws this strategy uses for ``global_size`` on ``config``."""

    def describe(self) -> str:
        """One-line human readable description."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"{type(self).__name__}({self.describe()!r})"


class NaiveMapping(MappingStrategy):
    """The paper's naive baseline: ``lws = 1`` regardless of hardware."""

    name = "naive-lws1"

    def select_local_size(self, global_size: int, config: ArchConfig) -> int:
        return 1

    def describe(self) -> str:
        return "naive mapping (lws = 1, one work-item per workgroup)"


class FixedMapping(MappingStrategy):
    """A hardware-agnostic constant lws (the paper uses 32)."""

    def __init__(self, local_size: int = 32):
        if local_size < 1:
            raise ValueError(f"fixed local size must be positive, got {local_size}")
        self.local_size = local_size
        self.name = f"fixed-lws{local_size}"

    def select_local_size(self, global_size: int, config: ArchConfig) -> int:
        # OpenCL requires lws <= gws; the runtime clamps exactly like NDRange does.
        return min(self.local_size, max(1, global_size))

    def describe(self) -> str:
        return f"fixed mapping (lws = {self.local_size} independent of hardware)"


class HardwareAwareMapping(MappingStrategy):
    """The paper's contribution: Equation 1 evaluated at runtime."""

    name = "hardware-aware"

    def select_local_size(self, global_size: int, config: ArchConfig) -> int:
        return optimal_local_size(global_size, config)

    def describe(self) -> str:
        return "hardware-aware runtime mapping (lws = ceil(gws / hp), Eq. 1)"


#: The three strategies of the paper's Figure 2, keyed by the labels used there.
PAPER_STRATEGIES: Dict[str, MappingStrategy] = {
    "lws=1": NaiveMapping(),
    "lws=32": FixedMapping(32),
    "ours": HardwareAwareMapping(),
}


def strategy_by_name(name: str) -> MappingStrategy:
    """Look up a strategy by report label (``"lws=1"``, ``"lws=32"``, ``"ours"``)
    or by strategy name (``"naive-lws1"``, ``"fixed-lws32"``, ``"hardware-aware"``,
    ``"fixed-lws<N>"`` for any N)."""
    if name in PAPER_STRATEGIES:
        return PAPER_STRATEGIES[name]
    for strategy in PAPER_STRATEGIES.values():
        if strategy.name == name:
            return strategy
    if name.startswith("fixed-lws"):
        return FixedMapping(int(name[len("fixed-lws"):]))
    if name.startswith("lws="):
        return FixedMapping(int(name[len("lws="):]))
    raise KeyError(f"unknown mapping strategy {name!r}")
