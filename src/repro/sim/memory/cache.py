"""Set-associative cache model.

The cache is *tag only*: it tracks which lines are resident to decide hits
and misses, while actual data lives in :class:`~repro.sim.memory.mainmem.MainMemory`.
Replacement is true LRU per set.  The model is used for both the per-core L1
data caches and the shared L2.
"""

from __future__ import annotations

from typing import Dict, List


class Cache:
    """A tag-only, set-associative, LRU cache.

    Parameters
    ----------
    name:
        Label used in statistics (e.g. ``"L1D(core3)"``).
    size_words / line_words / ways:
        Geometry; the number of sets is derived and may be any positive
        integer, because sets are selected by modulo.
    """

    __slots__ = ("name", "line_words", "ways", "num_sets", "_sets", "_tick",
                 "hits", "misses", "write_hits", "write_misses", "fills", "evictions")

    def __init__(self, name: str, size_words: int, line_words: int, ways: int):
        if size_words <= 0 or line_words <= 0 or ways <= 0:
            raise ValueError("cache geometry values must be positive")
        if size_words % (line_words * ways) != 0:
            raise ValueError("size_words must be a multiple of line_words * ways")
        self.name = name
        self.line_words = line_words
        self.ways = ways
        self.num_sets = size_words // (line_words * ways)
        # Each set maps line_address -> last-use tick.  Dict insertion order
        # doubles as the LRU order: every touch re-inserts the line at the
        # end, so the victim is always the first key -- O(1) eviction with
        # exactly the semantics of a min-scan over the ticks.
        self._sets: List[Dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.write_hits = 0
        self.write_misses = 0
        self.fills = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def line_address(self, word_address: int) -> int:
        """Cache-line index containing ``word_address``."""
        return word_address // self.line_words

    def _set_for(self, line_address: int) -> Dict[int, int]:
        return self._sets[line_address % self.num_sets]

    def lookup(self, line_address: int) -> bool:
        """Return True if the line is resident (updates LRU state on hit)."""
        self._tick += 1
        entry = self._set_for(line_address)
        if line_address in entry:
            del entry[line_address]          # move to the LRU tail
            entry[line_address] = self._tick
            return True
        return False

    def fill(self, line_address: int) -> None:
        """Insert a line, evicting the LRU line of its set if necessary."""
        self._tick += 1
        entry = self._set_for(line_address)
        if line_address in entry:
            del entry[line_address]          # move to the LRU tail
            entry[line_address] = self._tick
            return
        if len(entry) >= self.ways:
            del entry[next(iter(entry))]     # first key = least recently used
            self.evictions += 1
        entry[line_address] = self._tick
        self.fills += 1

    # ------------------------------------------------------------------ convenience
    def access(self, line_address: int, write: bool = False, allocate_on_miss: bool = True) -> bool:
        """One timing access; returns hit/miss and maintains statistics.

        Reads allocate on miss by default (``allocate_on_miss``); writes are
        write-through and never allocate (Vortex-style L1 behaviour), they only
        refresh LRU state on hit.
        """
        hit = self.lookup(line_address)
        if write:
            if hit:
                self.write_hits += 1
            else:
                self.write_misses += 1
            return hit
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            if allocate_on_miss:
                self.fill(line_address)
        return hit

    def reset_statistics(self) -> None:
        """Zero all counters but keep cache contents."""
        self.hits = self.misses = 0
        self.write_hits = self.write_misses = 0
        self.fills = self.evictions = 0

    def invalidate(self) -> None:
        """Drop every resident line (used between independent launches)."""
        for entry in self._sets:
            entry.clear()

    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident (for tests)."""
        return sum(len(entry) for entry in self._sets)

    @property
    def hit_rate(self) -> float:
        """Read hit rate."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
