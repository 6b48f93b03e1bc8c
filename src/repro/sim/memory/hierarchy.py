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

The walk does only the work the model reads: the LRU fill/evict step and the
DRAM slot arithmetic (:mod:`repro.sim.memory.dram`) are inlined, totals are
kept in locals and added to the cache and DRAM counters once per call, and a
load reads the L2 and DRAM state only once a line misses its L1.
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
        self._l2_latency = config.l1_hit_latency + config.l2_hit_latency

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
        l1 = self.l1[core_id]
        l1_sets, l1_num_sets, l1_ways = l1._sets, l1.num_sets, l1.ways
        latency, hits, index, last_hit, l2 = 1, 0, -1, -1, None
        for index, line_address in enumerate(lines):
            entry = l1_sets[line_address % l1_num_sets]
            if line_address in entry:
                del entry[line_address]      # move to the LRU tail
                entry[line_address] = None
                hits += 1
                last_hit = index
                continue
            if len(entry) >= l1_ways:
                del entry[next(iter(entry))]     # first key = least recently used
            entry[line_address] = None
            if l2 is None:                   # the call's first L1 miss
                l2, dram, l2_hits, queue = self.l2, self.dram, 0, 0
                l2_sets, l2_num_sets, l2_ways = l2._sets, l2.num_sets, l2.ways
                next_free, cycles_per_line = dram._next_free, dram.cycles_per_line
                l2_latency, dram_latency = self._l2_latency, dram.latency
            entry = l2_sets[line_address % l2_num_sets]
            if line_address in entry:
                del entry[line_address]
                entry[line_address] = None
                l2_hits += 1
                arrival = index + l2_latency
            else:
                if len(entry) >= l2_ways:
                    del entry[next(iter(entry))]
                entry[line_address] = None
                issue = now + index
                start = float(issue)
                if next_free > start:
                    queue += int(next_free - issue)
                    start = next_free
                next_free = start + cycles_per_line
                arrival = l2_latency + int(start + dram_latency) - now
            if arrival > latency:
                latency = arrival
        if hits:
            l1.hits += hits
            latency = max(latency, last_hit + self.config.l1_hit_latency)
        if l2 is not None:
            misses = index + 1 - hits
            l1.misses += misses
            l2.hits += l2_hits
            l2.misses += misses - l2_hits
            dram._next_free = next_free
            dram.lines_transferred += misses - l2_hits
            dram.total_queue_cycles += queue
        return latency

    def store(self, core_id: int, lines, now: int) -> None:
        """Walk the coalesced ``lines`` of one write-through store by ``core_id``
        (line ``index`` issued at ``now + index``; never stalls the warp): a
        resident line is refreshed, none is allocated, each takes a DRAM slot."""
        l1, l2, dram = self.l1[core_id], self.l2, self.dram
        l1_sets, l1_num_sets = l1._sets, l1.num_sets
        l2_sets, l2_num_sets = l2._sets, l2.num_sets
        next_free, cycles_per_line = dram._next_free, dram.cycles_per_line
        index, queue = -1, 0
        for index, line_address in enumerate(lines):
            entry = l1_sets[line_address % l1_num_sets]
            if line_address in entry:
                del entry[line_address]      # move to the LRU tail
                entry[line_address] = None
            entry = l2_sets[line_address % l2_num_sets]
            if line_address in entry:
                del entry[line_address]
                entry[line_address] = None
            issue = now + index
            start = float(issue)
            if next_free > start:
                queue += int(next_free - issue)
                start = next_free
            next_free = start + cycles_per_line
        dram._next_free = next_free
        dram.lines_transferred += index + 1
        dram.total_queue_cycles += queue

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
