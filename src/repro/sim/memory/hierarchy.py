"""Memory hierarchy: per-core L1 data caches, shared L2, DRAM.

The hierarchy answers a single question for the core model: *how long does
this cache-line request take?*  Loads walk L1 -> L2 -> DRAM, filling on the
way back; stores are write-through (they update LRU state and consume DRAM
bandwidth but never stall the issuing warp, which matches the write-buffer
behaviour of small GPU cores).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.sim.config import ArchConfig
from repro.sim.memory.cache import Cache
from repro.sim.memory.dram import DramModel


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache-line request."""

    latency: int          # cycles until the data is available to the warp
    level: str            # "l1", "l2" or "dram" -- where the request was served
    queue_cycles: int = 0  # cycles spent waiting for DRAM bandwidth


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

    def load_line(self, core_id: int, line_address: int, now: int) -> AccessResult:
        """Timing of a load request for ``line_address`` issued by ``core_id`` at ``now``."""
        l1 = self.l1[core_id]
        if l1.access(line_address, write=False):
            return AccessResult(latency=self.config.l1_hit_latency, level="l1")
        if self.l2.access(line_address, write=False):
            latency = self.config.l1_hit_latency + self.config.l2_hit_latency
            return AccessResult(latency=latency, level="l2")
        completion = self.dram.access(now)
        queue = max(0, completion - now - self.config.dram_latency)
        latency = (self.config.l1_hit_latency + self.config.l2_hit_latency
                   + (completion - now))
        return AccessResult(latency=latency, level="dram", queue_cycles=queue)

    def store_line(self, core_id: int, line_address: int, now: int) -> AccessResult:
        """Timing bookkeeping of a write-through store (never stalls the warp)."""
        l1 = self.l1[core_id]
        l1.access(line_address, write=True)
        self.l2.access(line_address, write=True)
        # The write still travels to DRAM and consumes bandwidth.
        self.dram.access(now)
        return AccessResult(latency=1, level="store")

    # ------------------------------------------------------------------ fast paths
    # Same state transitions and statistics as load_line/store_line, with the
    # per-level Cache.access/lookup call chain inlined and the per-line loop
    # batched into one call.  Used by the fast engine; equivalence is covered
    # by the differential and golden suites.

    def load_lines_fast(self, core_id: int, lines, now: int) -> int:
        """Batched :meth:`load_line` over coalesced ``lines``; returns the
        warp's load latency (max arrival across the line requests, floor 1).

        Line ``index`` is issued at ``now + index`` and arrives at
        ``index + its latency`` -- the same arithmetic as the reference
        core's per-line loop.  ``lines`` is any iterable of line indices in
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

    def store_lines_fast(self, core_id: int, lines, now: int) -> None:
        """Batched :meth:`store_line` over coalesced ``lines`` (line ``index``
        issued at ``now + index``, write-through, never stalls the warp)."""
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

    def load_round_fast(self, core_id: int, lines, out, order, now: int) -> None:
        """One single-line load per warp of a streamed batch round.

        Warp slot ``k`` requests ``lines[k]`` at ``now + k``; its latency
        (relative to its own issue cycle, so ``index`` is always 0) lands in
        ``out[order[k]]``.  State transitions and statistics are exactly one
        :meth:`load_lines_fast` call per warp, with the per-warp call overhead
        hoisted out of the loop.
        """
        config = self.config
        l1 = self.l1[core_id]
        l1_sets = l1._sets
        l1_num_sets = l1.num_sets
        l1_latency = config.l1_hit_latency
        l2_latency = l1_latency + config.l2_hit_latency
        l2 = self.l2
        l2_sets = l2._sets
        l2_num_sets = l2.num_sets
        dram = self.dram
        for k, line_address in enumerate(lines):
            l1._tick += 1
            entry = l1_sets[line_address % l1_num_sets]
            if line_address in entry:
                del entry[line_address]      # move to the LRU tail
                entry[line_address] = l1._tick
                l1.hits += 1
                arrival = l1_latency
            else:
                l1.misses += 1
                l1.fill(line_address)
                l2._tick += 1
                entry = l2_sets[line_address % l2_num_sets]
                if line_address in entry:
                    del entry[line_address]  # move to the LRU tail
                    entry[line_address] = l2._tick
                    l2.hits += 1
                    arrival = l2_latency
                else:
                    l2.misses += 1
                    l2.fill(line_address)
                    completion = dram.access(now + k)
                    arrival = l2_latency + (completion - now - k)
            out[order[k]] = arrival if arrival > 1 else 1

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop all cached lines and reset DRAM queue state (between launches)."""
        for cache in self.l1:
            cache.invalidate()
            cache.reset_statistics()
        self.l2.invalidate()
        self.l2.reset_statistics()
        self.dram.reset()

    def statistics(self) -> Dict[str, int]:
        """Aggregate cache/DRAM counters for :class:`~repro.sim.stats.PerfCounters`."""
        l1_hits = sum(c.hits for c in self.l1)
        l1_misses = sum(c.misses for c in self.l1)
        return {
            "l1_hits": l1_hits,
            "l1_misses": l1_misses,
            "l2_hits": self.l2.hits,
            "l2_misses": self.l2.misses,
            "dram_lines": self.dram.lines_transferred,
            "dram_queue_cycles": self.dram.total_queue_cycles,
        }
