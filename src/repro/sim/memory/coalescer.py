"""Memory-access coalescing.

A SIMT memory instruction produces one address per active lane.  The load/store
unit merges addresses that fall into the same cache line into a single request,
exactly like the coalescing stage of real GPUs; the number of resulting line
requests determines how many cache accesses (and potential misses) the warp
pays for.
"""

from __future__ import annotations

from typing import List, Sequence


def coalesce(word_addresses: Sequence[int], line_words: int) -> List[int]:
    """The unique cache lines of per-lane word addresses, in first-appearance
    order -- the request order of one memory instruction's walk."""
    if line_words <= 0:
        raise ValueError("line_words must be positive")
    return list(dict.fromkeys(address // line_words for address in word_addresses))
