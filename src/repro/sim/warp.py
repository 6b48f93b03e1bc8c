"""Warp state.

A warp is the hardware scheduling unit: ``threads_per_warp`` lanes executing
the same instruction stream in lockstep under an active-lane mask.  The warp
object holds everything the core needs between cycles: the program counter,
the active mask, the per-lane register file, the SIMT reconvergence stack for
structured divergence, the CSR file published by the dispatcher, and the
scoreboard tracking in-flight register writes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.isa.registers import CsrFile


def mask_of(lane_count: int) -> int:
    """Full active mask for ``lane_count`` lanes."""
    return (1 << lane_count) - 1


def popcount(mask: int) -> int:
    """Number of set bits (active lanes) in ``mask``."""
    return bin(mask).count("1")


def lanes_of(mask: int) -> List[int]:
    """Indices of the active lanes in ``mask`` (ascending)."""
    lanes = []
    lane = 0
    while mask:
        if mask & 1:
            lanes.append(lane)
        mask >>= 1
        lane += 1
    return lanes


class Warp:
    """Execution state of one warp on one core."""

    __slots__ = (
        "warp_id", "lane_count", "pc", "active_mask", "regs", "simt_stack",
        "csr", "halted", "at_barrier", "next_issue_cycle", "scoreboard",
        "_lanes_cache", "_lanes_cache_mask",
    )

    def __init__(self, warp_id: int, lane_count: int, num_registers: int,
                 csr: CsrFile, active_lanes: Optional[int] = None):
        if lane_count < 1:
            raise ValueError("a warp needs at least one lane")
        active = lane_count if active_lanes is None else active_lanes
        if not (0 < active <= lane_count):
            raise ValueError(f"active_lanes must be in 1..{lane_count}, got {active}")
        self.warp_id = warp_id
        self.lane_count = lane_count
        self.pc = 0
        self.active_mask = mask_of(active)
        self.regs = self._new_regs(lane_count, num_registers)
        self.simt_stack: List[Tuple] = []
        self.csr = csr
        self.halted = False
        self.at_barrier = False
        self.next_issue_cycle = 0
        # register index -> cycle at which the pending write completes
        self.scoreboard: Dict[int, int] = {}
        self._lanes_cache: List[int] = []      # filled by active_lanes()
        self._lanes_cache_mask = 0

    # ------------------------------------------------------------------
    def _new_regs(self, lane_count: int, num_registers: int):
        """The zeroed register file, ``regs[lane][register]``."""
        return [[0.0] * num_registers for _ in range(lane_count)]

    def active_lanes(self) -> List[int]:
        """Indices of currently active lanes (cached per mask value)."""
        if self.active_mask != self._lanes_cache_mask:
            self._lanes_cache = lanes_of(self.active_mask)
            self._lanes_cache_mask = self.active_mask
        return self._lanes_cache

    @property
    def runnable(self) -> bool:
        """True when the warp still has work and is not parked at a barrier."""
        return not self.halted and not self.at_barrier

    def registers_ready_cycle(self, registers: Tuple[int, ...]) -> int:
        """Earliest cycle at which every register in ``registers`` is available."""
        ready = 0
        for reg in registers:
            pending = self.scoreboard.get(reg)
            if pending is not None and pending > ready:
                ready = pending
        return ready

    def retire_completed_writes(self, cycle: int) -> None:
        """Drop scoreboard entries whose writes completed at or before ``cycle``."""
        if not self.scoreboard:
            return
        done = [reg for reg, ready in self.scoreboard.items() if ready <= cycle]
        for reg in done:
            del self.scoreboard[reg]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "halted" if self.halted else ("barrier" if self.at_barrier else "running")
        return (f"Warp(id={self.warp_id}, pc={self.pc}, mask=0b{self.active_mask:b}, "
                f"{state})")


@lru_cache(maxsize=None)
def _lane_constants(lane_count: int):
    """Read-only ``(lane_ids, bit_weights)`` shared by every warp this wide.

    ``lane_ids`` is the lane index as float64 (the vectorised THREAD_ID CSR
    read).  ``bit_weights`` is ``2.0 ** lane``: a bool-row dot product with it
    packs a lane predicate into a mask integer in one numpy call.  That is
    exact only while the sum fits a float64 mantissa; wider warps get ``None``
    and fall back to ``np.packbits``.
    """
    lane_ids = np.arange(lane_count, dtype=np.float64)
    lane_ids.flags.writeable = False
    if lane_count > 52:
        return lane_ids, None
    bit_weights = np.power(2.0, lane_ids)
    bit_weights.flags.writeable = False
    return lane_ids, bit_weights


class FastWarp(Warp):
    """Warp with a numpy register file, used by the ``fast`` and ``batch``
    engines (a narrow ``fast`` launch is a :class:`ListWarp` instead).

    Registers are stored transposed -- shape ``(num_registers, lane_count)``
    float64 -- so one architectural register across all lanes is a contiguous
    row and lane-parallel execution becomes a handful of numpy operations.
    Register values are float64 in both layouts, so the two engines perform
    bit-identical arithmetic.  ``tups`` holds its core's closure family.

    A warp under a contiguous prefix mask is a narrower warp: ``vrows`` holds
    the register rows as views of exactly the active width (``rows`` itself
    when every lane is active), so handlers run the same whole-array code for
    one active lane as for thirty-two.  Only a truly divergent mask has
    ``vrows is None`` and an index array in ``sel``.  The view attributes
    follow ``_view_mask``; a handler that finds ``active_mask`` moved calls
    :meth:`refresh`.
    """

    __slots__ = ("scratch", "lane_ids", "bit_weights", "_d_cache", "_ready_bound",
                 "reg_ready", "rows", "_views", "_view_mask", "vrows", "width",
                 "vscratch", "vweights", "sel", "tups")

    lists = False       # ``rows`` are numpy rows, not lists (ListWarp)

    def __init__(self, warp_id: int, lane_count: int, num_registers: int,
                 csr: CsrFile, active_lanes: Optional[int] = None):
        super().__init__(warp_id, lane_count, num_registers, csr,
                         active_lanes=active_lanes)
        self.bind_rows(self.regs)
        #: Per-warp temporary row of multi-step operations (FMA, per-lane CSRs).
        self.scratch = np.zeros(lane_count, dtype=np.float64)
        self.lane_ids, self.bit_weights = _lane_constants(lane_count)
        #: The decoded tuple (``tups[pc]``) at the current PC, cached by the
        #: fast issue path; ``None`` means "recompute" (every issue, barrier
        #: release).  HALT, TMC and BAR park their warp here when it stops.
        self._d_cache = None
        #: Lower bound on the next issue cycle while ``_d_cache`` is set: own
        #: readiness (spacing, scoreboard) maxed with the unit's busy-until when
        #: last checked.  Valid because busy-until only moves forward: only an
        #: issue on the unit writes it, needing it <= cycle and writing a later
        #: cycle.  ``NEVER`` parks a halted warp or one at a barrier.
        self._ready_bound = 0
        #: Flat scoreboard: cycle at which each register's pending write
        #: completes (0 / a past cycle = no constraint).  Replaces the dict
        #: scoreboard on the fast path -- a stale entry whose cycle has
        #: passed never constrains, so entries are only ever overwritten.
        self.reg_ready = [0] * num_registers

    def _new_regs(self, lane_count: int, num_registers: int):
        return np.zeros((num_registers, lane_count), dtype=np.float64)

    def bind_rows(self, regs: np.ndarray) -> None:
        """Make ``regs`` (``num_registers x lane_count``) the register file.

        ``rows[r]`` is ``regs[r]`` without paying ndarray ``__getitem__`` on
        every access (list indexing is several times cheaper, and handlers
        touch 2-4 rows per issued instruction).  Every cached view pointed
        into the old storage, so all of them are dropped.
        """
        self.regs = regs
        self.rows = list(regs)
        self._views: Dict[int, tuple] = {}
        self._view_mask = -1

    def refresh(self) -> Optional[List[np.ndarray]]:
        """Point the view attributes at ``active_mask``; returns ``vrows``.

        The views of each mask value are built once per warp and kept, so a
        loop that narrows and re-widens the mask only swaps attributes.
        """
        mask = self._view_mask = self.active_mask
        views = self._views.get(mask)
        if views is None:
            width = mask.bit_length()
            weights = self.bit_weights
            if mask & (mask + 1):
                views = (None, width, None, None,
                         np.fromiter(self.active_lanes(), dtype=np.intp))
            elif width == self.lane_count:
                views = (self.rows, width, self.scratch, weights, None)
            else:
                views = ([row[:width] for row in self.rows], width,
                         self.scratch[:width],
                         None if weights is None else weights[:width], None)
            self._views[mask] = views
        self.vrows, self.width, self.vscratch, self.vweights, self.sel = views
        return self.vrows


class ListWarp(FastWarp):
    """Fast-engine warp of a launch of at most
    :data:`~repro.sim.fastcore.LIST_LANES` lanes: ``rows[reg]`` is a list of
    ``lane_count`` Python floats, the values the reference's ``regs[lane]``
    hold, run by per-lane closures with no numpy call (:meth:`refresh` is
    never used)."""

    __slots__ = ()
    lists = True

    def _new_regs(self, lane_count: int, num_registers: int):
        return list(map(list.copy, repeat([0.0] * lane_count, num_registers)))

    def bind_rows(self, regs) -> None:
        self.regs = self.rows = regs
