"""Set-associative cache model.

The cache is *tag only*: it tracks which lines are resident to decide hits
and misses, while actual data lives in :class:`~repro.sim.memory.mainmem.MainMemory`.
Replacement is true LRU per set.  The model is used for both the per-core L1
data caches and the shared L2.  It owns the geometry, the sets and the load
hit/miss counters; the lookup, fill and evict steps that read and refresh the
sets are inlined in the one walk, :class:`~repro.sim.memory.hierarchy.MemoryHierarchy`.
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

    __slots__ = ("name", "line_words", "ways", "num_sets", "_sets", "hits", "misses")

    def __init__(self, name: str, size_words: int, line_words: int, ways: int):
        if size_words <= 0 or line_words <= 0 or ways <= 0:
            raise ValueError("cache geometry values must be positive")
        if size_words % (line_words * ways) != 0:
            raise ValueError("size_words must be a multiple of line_words * ways")
        self.name = name
        self.line_words = line_words
        self.ways = ways
        self.num_sets = size_words // (line_words * ways)
        # Each set maps resident line_address -> None.  Dict insertion order
        # is the LRU order: every touch re-inserts the line at the end, so
        # the victim is always the first key -- O(1) eviction, no timestamps.
        self._sets: List[Dict[int, None]] = [dict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def reset_statistics(self) -> None:
        """Zero the hit/miss counters but keep cache contents."""
        self.hits = self.misses = 0

    def invalidate(self) -> None:
        """Drop every resident line (used between independent launches)."""
        for entry in self._sets:
            entry.clear()

    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident (for tests)."""
        return sum(len(entry) for entry in self._sets)
