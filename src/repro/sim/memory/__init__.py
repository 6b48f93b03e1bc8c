"""Memory subsystem of the simulated GPU.

* :class:`~repro.sim.memory.mainmem.MainMemory` -- the word-addressed backing
  store holding real data (so kernel results can be checked against numpy).
* :class:`~repro.sim.memory.cache.Cache` -- a set-associative, LRU, tag-only
  cache model used for both the per-core L1s and the shared L2.
* :class:`~repro.sim.memory.dram.DramModel` -- latency + bandwidth-limited
  DRAM back end.
* :class:`~repro.sim.memory.coalescer.coalesce` -- turns per-lane word
  addresses into the unique cache lines of one request, in request order.
* :class:`~repro.sim.memory.hierarchy.MemoryHierarchy` -- ties L1s, the L2 and
  DRAM together.  Its ``load`` / ``store`` are the one memory walk all three
  engines take, and its ``statistics()`` drains the counters the walk keeps.
"""

from repro.sim.memory.cache import Cache
from repro.sim.memory.coalescer import coalesce
from repro.sim.memory.dram import DramModel
from repro.sim.memory.hierarchy import MemoryHierarchy
from repro.sim.memory.mainmem import MainMemory, MemoryError_

__all__ = [
    "Cache",
    "DramModel",
    "MainMemory",
    "MemoryError_",
    "MemoryHierarchy",
    "coalesce",
]
