"""DRAM latency / bandwidth model.

DRAM is modelled as a fixed access latency plus a global bandwidth limit
expressed in cache lines per cycle.  Requests that arrive faster than the
bandwidth allows queue up: the model keeps a "next free slot" time and each
request is served at ``max(arrival, next_free)``, so sustained over-subscription
shows up as growing queueing delay -- the behaviour that makes memory-bound
kernels insensitive to extra parallelism in the paper's Figure 2.

The class holds the parameters, the queue state and the counters; the
per-line arithmetic is inlined in the walk
(:class:`~repro.sim.memory.hierarchy.MemoryHierarchy`): a line issued at
cycle ``issue`` starts at ``start = max(float(issue), next_free)``, moves
``next_free`` to ``start + cycles_per_line``, waits ``int(start - issue)``
queue cycles and completes at ``int(start + latency)``.
"""

from __future__ import annotations


class DramModel:
    """Latency + token-bucket bandwidth model for the DRAM back end."""

    __slots__ = ("latency", "cycles_per_line", "_next_free", "lines_transferred",
                 "total_queue_cycles")

    def __init__(self, latency: int, lines_per_cycle: float):
        if latency < 0:
            raise ValueError("DRAM latency cannot be negative")
        if not lines_per_cycle > 0:
            raise ValueError("DRAM bandwidth must be positive")
        self.latency = latency
        #: Slot spacing between two line transfers.
        self.cycles_per_line = 1.0 / lines_per_cycle
        self._next_free = 0.0
        self.lines_transferred = 0
        self.total_queue_cycles = 0

    def reset(self) -> None:
        """Clear queue state and statistics (between launches)."""
        self._next_free = 0.0
        self.lines_transferred = 0
        self.total_queue_cycles = 0
