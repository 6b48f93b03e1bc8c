"""DRAM latency / bandwidth model.

DRAM is modelled as a fixed access latency plus a global bandwidth limit
expressed in cache lines per cycle.  Requests that arrive faster than the
bandwidth allows queue up: the model keeps a "next free slot" time and each
request is served at ``max(arrival, next_free)``, so sustained over-subscription
shows up as growing queueing delay -- the behaviour that makes memory-bound
kernels insensitive to extra parallelism in the paper's Figure 2.
"""

from __future__ import annotations


class DramModel:
    """Latency + token-bucket bandwidth model for the DRAM back end."""

    __slots__ = ("latency", "lines_per_cycle", "_next_free", "lines_transferred",
                 "total_queue_cycles")

    def __init__(self, latency: int, lines_per_cycle: float):
        if latency < 0:
            raise ValueError("DRAM latency cannot be negative")
        if lines_per_cycle <= 0:
            raise ValueError("DRAM bandwidth must be positive")
        self.latency = latency
        self.lines_per_cycle = lines_per_cycle
        self._next_free = 0.0
        self.lines_transferred = 0
        self.total_queue_cycles = 0

    def access(self, now: int) -> int:
        """Issue one line transfer at cycle ``now``; return its completion cycle."""
        start = max(float(now), self._next_free)
        queue_delay = start - now
        self._next_free = start + 1.0 / self.lines_per_cycle
        self.lines_transferred += 1
        self.total_queue_cycles += int(queue_delay)
        return int(start + self.latency)

    def reset(self) -> None:
        """Clear queue state and statistics (between launches)."""
        self._next_free = 0.0
        self.lines_transferred = 0
        self.total_queue_cycles = 0
