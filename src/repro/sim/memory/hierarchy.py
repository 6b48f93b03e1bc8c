"""Memory hierarchy: per-core L1 data caches, shared L2, DRAM.

The hierarchy answers a single question for the core model: *how long does
this warp's memory instruction take?*  :meth:`MemoryHierarchy.load` and
:meth:`MemoryHierarchy.store` are the one walk every engine takes, over the
coalesced line list of one instruction (a single line is a list of one).
Loads walk L1 -> L2 -> DRAM, filling on the way back; stores are
write-through and never allocate (they refresh LRU state on a hit and consume
DRAM bandwidth but never stall the issuing warp, which matches the
write-buffer behaviour of small GPU cores).  Line ``index`` of a call is
issued at ``now + index``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.config import ArchConfig
from repro.sim.memory.cache import Cache
from repro.sim.memory.dram import DramModel


class MemoryHierarchy:
    """Shared memory system of one simulated GPU."""

    def __init__(self, config: ArchConfig):
        self.config = config
        self.l1: List[Cache] = [
            Cache(f"L1D(core{core})", config.l1_size_words, config.l1_line_words, config.l1_ways)
            for core in range(config.cores)
        ]
        self.l2 = Cache("L2", config.l2_size_words, config.l2_line_words, config.l2_ways)
        self.dram = DramModel(config.dram_latency, config.dram_lines_per_cycle)

    # ------------------------------------------------------------------
    @property
    def line_words(self) -> int:
        """Cache-line size in words (L1 and L2 share it)."""
        return self.config.l1_line_words

    def load(self, core_id: int, lines, now: int) -> int:
        """Walk the coalesced ``lines`` of one load by ``core_id`` at ``now``;
        return the warp's load latency (max arrival across the lines, floor 1).

        Line ``index`` is issued at ``now + index`` and arrives at
        ``index + its latency``.  ``lines`` is any iterable of line indices in
        request order (the fast engine passes its dedup dict).
        """
        config = self.config
        l1 = self.l1[core_id]
        l1_sets = l1._sets
        l1_num_sets = l1.num_sets
        l1_latency = config.l1_hit_latency
        l2_latency = l1_latency + config.l2_hit_latency
        latency = 1
        for index, line_address in enumerate(lines):
            l1._tick += 1
            entry = l1_sets[line_address % l1_num_sets]
            if line_address in entry:
                del entry[line_address]      # move to the LRU tail
                entry[line_address] = l1._tick
                l1.hits += 1
                arrival = index + l1_latency
            else:
                l1.misses += 1
                l1.fill(line_address)
                l2 = self.l2
                l2._tick += 1
                entry = l2._sets[line_address % l2.num_sets]
                if line_address in entry:
                    del entry[line_address]  # move to the LRU tail
                    entry[line_address] = l2._tick
                    l2.hits += 1
                    arrival = index + l2_latency
                else:
                    l2.misses += 1
                    l2.fill(line_address)
                    completion = self.dram.access(now + index)
                    arrival = index + l2_latency + (completion - now - index)
            if arrival > latency:
                latency = arrival
        return latency

    def store(self, core_id: int, lines, now: int) -> None:
        """Walk the coalesced ``lines`` of one write-through store by
        ``core_id`` (line ``index`` issued at ``now + index``; never stalls
        the warp)."""
        l1 = self.l1[core_id]
        l1_sets = l1._sets
        l1_num_sets = l1.num_sets
        l2 = self.l2
        l2_sets = l2._sets
        l2_num_sets = l2.num_sets
        dram = self.dram
        for index, line_address in enumerate(lines):
            l1._tick += 1
            entry = l1_sets[line_address % l1_num_sets]
            if line_address in entry:
                del entry[line_address]      # move to the LRU tail
                entry[line_address] = l1._tick
                l1.write_hits += 1
            else:
                l1.write_misses += 1
            l2._tick += 1
            entry = l2_sets[line_address % l2_num_sets]
            if line_address in entry:
                del entry[line_address]      # move to the LRU tail
                entry[line_address] = l2._tick
                l2.write_hits += 1
            else:
                l2.write_misses += 1
            dram.access(now + index)

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop all cached lines and reset DRAM queue state (between launches)."""
        for cache in (*self.l1, self.l2):
            cache.invalidate()
            cache.reset_statistics()
        self.dram.reset()

    def statistics(self) -> Dict[str, int]:
        """Drain the cache/DRAM counters for :class:`~repro.sim.stats.PerfCounters`:
        return the totals since the last drain and zero them (contents and
        DRAM queue state are kept)."""
        dram = self.dram
        stats = {
            "l1_hits": sum(c.hits for c in self.l1),
            "l1_misses": sum(c.misses for c in self.l1),
            "l2_hits": self.l2.hits,
            "l2_misses": self.l2.misses,
            "dram_lines": dram.lines_transferred,
            "dram_queue_cycles": dram.total_queue_cycles,
        }
        for cache in (*self.l1, self.l2):
            cache.reset_statistics()
        dram.lines_transferred = dram.total_queue_cycles = 0
        return stats
