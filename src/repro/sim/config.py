"""Micro-architecture configuration.

An :class:`ArchConfig` bundles every parameter of the simulated GPU: the
hardware-parallelism triple (cores, warps per core, threads per warp) that the
paper's Equation 1 consumes, the memory-hierarchy geometry, functional-unit
latencies and the launch overheads of the runtime.  Configurations use the
paper's ``<c>c<w>w<t>t`` naming scheme (e.g. ``1c2w4t`` is the Figure-1
machine, ``64c32w32t`` the largest Figure-2 machine).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Mapping

from repro.isa.latencies import OpTiming
from repro.isa.opcodes import Opcode


class ConfigError(ValueError):
    """Raised for invalid architecture configurations."""


_NAME_RE = re.compile(r"^(\d+)c(\d+)w(\d+)t$")


@dataclass(frozen=True)
class ArchConfig:
    """Parameters of one simulated GPU configuration.

    The defaults model a small Vortex-like device; the memory system sizes are
    in 4-byte words (the simulator is word-addressed).
    """

    # hardware parallelism (the parameters of the paper's Eq. 1)
    cores: int = 1
    warps_per_core: int = 2
    threads_per_warp: int = 4

    # pipeline
    issue_width: int = 1
    warp_scheduler: str = "rr"     # "rr" (round-robin, Vortex default) or "gto"

    # L1 data cache (per core)
    l1_size_words: int = 4096
    l1_line_words: int = 16
    l1_ways: int = 4
    l1_hit_latency: int = 2

    # shared L2
    l2_size_words: int = 32768
    l2_line_words: int = 16
    l2_ways: int = 8
    l2_hit_latency: int = 20

    # DRAM
    dram_latency: int = 100
    dram_lines_per_cycle: float = 2.0

    # runtime / launch costs.  The launch overhead is the driver + spawn cost
    # every sequential kernel call pays; 32 cycles keeps the lws=1 penalty in
    # the same range the paper reports for Vortex (claim C1, which the
    # `claims` scenario reports beside the paper's value; README "Scenarios").
    kernel_launch_overhead: int = 32
    warp_spawn_cost: int = 1
    barrier_latency: int = 2

    # per-opcode timing overrides (opcode -> OpTiming)
    timing_overrides: Mapping[Opcode, OpTiming] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def __post_init__(self):
        for name in ("cores", "warps_per_core", "threads_per_warp", "issue_width",
                     "l1_size_words", "l1_line_words", "l1_ways",
                     "l2_size_words", "l2_line_words", "l2_ways"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.issue_width != 1:
            raise ConfigError(f"issue_width must be 1 (the core is single-issue), "
                              f"got {self.issue_width}")
        for name in ("l1_hit_latency", "l2_hit_latency", "dram_latency",
                     "kernel_launch_overhead", "warp_spawn_cost", "barrier_latency"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ConfigError(f"{name} must be a non-negative integer, got {value!r}")
        if not 0 < self.dram_lines_per_cycle < math.inf:
            raise ConfigError(f"dram_lines_per_cycle must be positive and finite, "
                              f"got {self.dram_lines_per_cycle!r}")
        if self.l2_line_words != self.l1_line_words:
            raise ConfigError(f"l2_line_words ({self.l2_line_words}) must equal "
                              f"l1_line_words ({self.l1_line_words}): the L2 is "
                              f"indexed by L1 line")
        if self.l1_size_words % (self.l1_line_words * self.l1_ways) != 0:
            raise ConfigError("l1_size_words must be a multiple of line size * ways")
        if self.l2_size_words % (self.l2_line_words * self.l2_ways) != 0:
            raise ConfigError("l2_size_words must be a multiple of line size * ways")
        from repro.sim.scheduler import available_policies  # deferred: avoids an import cycle
        if self.warp_scheduler not in available_policies():
            raise ConfigError(
                f"unknown warp scheduler {self.warp_scheduler!r}; "
                f"expected one of {list(available_policies())}"
            )

    # ------------------------------------------------------------------
    @property
    def hardware_parallelism(self) -> int:
        """``hp = cores * warps * threads`` -- the denominator of Eq. 1."""
        return self.cores * self.warps_per_core * self.threads_per_warp

    @property
    def name(self) -> str:
        """The paper's naming scheme, e.g. ``"8c4w16t"``."""
        return f"{self.cores}c{self.warps_per_core}w{self.threads_per_warp}t"

    @classmethod
    def from_name(cls, name: str, **overrides) -> "ArchConfig":
        """Parse a ``<c>c<w>w<t>t`` name into a configuration.

        Additional keyword arguments override non-shape parameters, e.g.
        ``ArchConfig.from_name("4c8w8t", dram_latency=200)``.
        """
        match = _NAME_RE.match(name.strip())
        if not match:
            raise ConfigError(f"cannot parse configuration name {name!r} (expected like '4c8w8t')")
        cores, warps, threads = (int(g) for g in match.groups())
        return cls(cores=cores, warps_per_core=warps, threads_per_warp=threads, **overrides)

    def describe(self) -> str:
        """Multi-line human readable summary used by reports and examples."""
        return "\n".join([
            f"configuration {self.name}",
            f"  cores x warps x threads : {self.cores} x {self.warps_per_core} x "
            f"{self.threads_per_warp}  (hp = {self.hardware_parallelism})",
            f"  L1D per core            : {self.l1_size_words * 4 // 1024} KiB, "
            f"{self.l1_ways}-way, {self.l1_line_words * 4}B lines, {self.l1_hit_latency} cyc",
            f"  shared L2               : {self.l2_size_words * 4 // 1024} KiB, "
            f"{self.l2_ways}-way, {self.l2_hit_latency} cyc",
            f"  DRAM                    : {self.dram_latency} cyc latency, "
            f"{self.dram_lines_per_cycle} lines/cyc",
            f"  kernel launch overhead  : {self.kernel_launch_overhead} cyc "
            f"(+{self.warp_spawn_cost}/warp)",
        ])


#: The Figure-1 machine of the paper.
FIGURE1_CONFIG = ArchConfig(cores=1, warps_per_core=2, threads_per_warp=4)

#: The smallest and largest machines of the Figure-2 sweep.
SMALLEST_CONFIG = ArchConfig(cores=1, warps_per_core=2, threads_per_warp=2)
LARGEST_CONFIG = ArchConfig(cores=64, warps_per_core=32, threads_per_warp=32)
