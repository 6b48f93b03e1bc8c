"""The ``batch`` simulation engine: trace-compiled, cross-warp execution.

Where the ``fast`` engine interprets one pre-decoded handler per warp per
issue, the batch engine executes whole *rounds*: all resident warps of a core
sitting at the same PC issue on consecutive slots (that is exactly what the
round-robin scheduler would do), so the round's data work collapses into one
2-D numpy operation over the core's *stacked* register file -- one ufunc, one
gather or one scatter per PC per core instead of per warp.  Runs of
element-wise PCs stream as compiled traces (:mod:`repro.sim.compile`) whose
cross-warp hazard feasibility was solved in closed form at compile time.

Bit-identity with the reference engine holds **by construction**, not by
sampling:

* A round only streams when a vectorized guard proves the exact schedule the
  reference scheduler would produce: every warp's scoreboard/issue-spacing
  readiness is checked against its slot's issue cycle, the round-robin
  rotation makes slot ``k``'s warp the unique priority head at its issue
  cycle, and a full round leaves ``rr_next`` exactly where per-warp issue
  would have.
* Rounds whose op holds a functional unit (multi-line memory, SFU intervals)
  issue with the exact spacing the FU hold forces.  The hold gates every warp
  still waiting at the round's PC, but a warp that has already issued moves
  to the *next* PC and the reference would slot that instruction into the
  hold's gap cycles -- so ragged rounds additionally carry a *steal guard*:
  they stream only when every issued warp's next instruction provably cannot
  become ready before the window's contiguous tail of issue cycles (where
  round-robin priority excludes it anyway).  The window's
  issue/stall/active-cycle accounting reproduces the visited-cycle arithmetic
  of the reference loop, gap cycles included.
* Memory walks still run per warp in slot order so LRU state and DRAM-queue
  timing mutate in the same order as the reference engine.  Cross-core
  windows interleave walks (and, when stores are involved, data) in
  (cycle, core) order.
* Cores that cannot stream but whose cached ``next_event_hint`` proves they
  cannot issue inside the window are carried as pure stallers -- exactly what
  the reference loop would have recorded for them.
* Everything the guards cannot prove -- divergent PCs, barriers, masked or
  out-of-bounds memory, GTO scheduling, drained warps -- is a visited cycle
  of the fast engine's event-skipping loop, which is itself proven
  bit-identical to the reference: streaming windows are a hook of
  :func:`~repro.sim.fastcore.run_fast`, and the batch engine runs inside it.

The differential suite, the golden counters and the fuzzing oracle
(``tests/test_engine_fuzz.py``) hold the engine to that guarantee.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Dict, List, Optional

import numpy as np

from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_ARG_SLOTS, Csr
from repro.sim.compile import CompiledProgram, compile_program
from repro.sim.config import ArchConfig
from repro.sim.core import NEVER, SimulationError
from repro.sim.fastcore import (
    FastSimtCore,
    _UNIFORM_CSR_ATTRS,
    per_process,
    run_fast,
)
from repro.sim.memory.hierarchy import MemoryHierarchy
from repro.sim.memory.mainmem import MainMemory
from repro.sim.stats import PerfCounters
from repro.telemetry.recorder import RECORDER


#: Promoted CSRs whose value is identical for every warp of a core during one
#: call (argument CSRs are too: the dispatcher hands every warp the same
#: ``args`` mapping), so one slab ``fill`` from warp 0 stages them.
_CORE_UNIFORM_CSRS = frozenset(
    csr for csr in _UNIFORM_CSR_ATTRS if csr is not Csr.WARP_ID
)


#: The batch compile of each program, per process (see :func:`compiled_program`).
_COMPILE_MEMO: Dict[tuple, tuple] = {}


def compiled_program(program: Program, config: ArchConfig) -> CompiledProgram:
    """:func:`~repro.sim.compile.compile_program`, once per process.

    A compile is built from the program and its decode alone, so it shares
    :func:`~repro.sim.fastcore.decode_program`'s memo key and bound.
    """
    return per_process(_COMPILE_MEMO, program, config, _compile_observed)


def _compile_observed(program: Program, config: ArchConfig) -> CompiledProgram:
    if not RECORDER.enabled:
        return compile_program(program, config)
    started = _perf_counter()
    compiled = compile_program(program, config)
    RECORDER.observe("engine.batch.compile_seconds", _perf_counter() - started)
    RECORDER.count("engine.batch.compiles")
    return compiled


def _fill_csr_slab(slab: np.ndarray, warps, csr_number: int) -> None:
    """Stage a promoted CSR's per-warp values into its ``(warps, lanes)``
    pseudo-register slab, mirroring the fast engine's per-kind CSRR reads.

    The dispatcher gives every warp of a call the same hardware-shape and
    argument values, so those stage as one ``fill`` -- guarded by an actual
    equality check so hand-built launches with divergent values stay exact.
    """
    if csr_number in _CORE_UNIFORM_CSRS:
        attr = _UNIFORM_CSR_ATTRS[csr_number]
        value = getattr(warps[0].csr, attr)
        if all(getattr(w.csr, attr) == value for w in warps):
            slab.fill(value)
        else:
            for k, w in enumerate(warps):
                slab[k].fill(getattr(w.csr, attr))
    elif Csr.ARG_BASE <= csr_number < Csr.ARG_BASE + NUM_ARG_SLOTS:
        slot = csr_number - Csr.ARG_BASE
        args0 = warps[0].csr.args
        if all(w.csr.args is args0 or w.csr.args == args0 for w in warps):
            slab.fill(args0.get(slot, 0.0))
        else:
            for k, w in enumerate(warps):
                slab[k].fill(w.csr.args.get(slot, 0.0))
    elif csr_number == Csr.THREAD_ID:
        slab[:] = warps[0].lane_ids
    elif csr_number == Csr.WARP_ID:
        for k, w in enumerate(warps):
            slab[k].fill(w.csr.warp_id)
    else:
        attr = ("workgroup_ids" if csr_number == Csr.WORKGROUP_ID
                else "local_counts")
        slab.fill(0.0)
        for k, w in enumerate(warps):
            values = getattr(w.csr, attr)
            slab[k, :len(values)] = values


class BatchSimtCore(FastSimtCore):
    """SIMT core executing compiled batch programs over stacked warp state."""

    engine_name = "batch"

    def __init__(self, core_id: int, config: ArchConfig, program: Program,
                 hierarchy: MemoryHierarchy, memory: MainMemory,
                 counters: PerfCounters, tracer=None,
                 compiled: Optional[CompiledProgram] = None):
        if compiled is None:
            compiled = compiled_program(program, config)
        super().__init__(core_id, config, program, hierarchy, memory,
                         counters, tracer=tracer, decoded=compiled.decoded)
        self._compiled = compiled
        self._stream_enabled = False   # armed by _adopt, dropped on first halt
        self._no_stream_pc = -1        # memo: last PC planning refused statically

    def _check_barrier_after_halt(self, cycle: int) -> None:
        # A halted warp's stack rows go stale; the remaining warps finish on
        # the exact path.  (A streamed HALT round drains the whole core.)
        self._stream_enabled = False
        super()._check_barrier_after_halt(cycle)

    # ------------------------------------------------------------------
    def _adopt(self) -> None:
        """Re-home per-warp state into core-wide stacks (called once per call).

        Registers become one ``(num_registers, warps, lanes)`` float64 stack:
        ``_slabs[r]`` is the (warps, lanes) slab batched rounds operate on,
        while each warp's ``rows[r]`` is rebound to its contiguous row view of
        the same memory -- so the fallback path's per-warp handlers keep
        working unchanged on shared storage.  The scoreboard likewise becomes
        one (warps, registers) int64 array with per-warp row views.
        """
        warps = self.warps
        n = len(warps)
        num_regs = self.program.num_registers
        lanes = self.config.threads_per_warp
        compiled = self._compiled
        stack = np.empty((compiled.num_slabs, n, lanes), dtype=np.float64)
        reg_ready = np.zeros((n, num_regs), dtype=np.int64)
        for k, w in enumerate(warps):
            stack[:num_regs, k, :] = w.regs
            w.bind_rows(stack[:num_regs, k, :])     # drops the warp's views
            for reg, ready in enumerate(w.reg_ready):
                if ready:
                    reg_ready[k, reg] = ready
            w.reg_ready = reg_ready[k]
        for csr_number, slot in compiled.csr_slots.items():
            _fill_csr_slab(stack[num_regs + slot], warps, csr_number)
        self._stack = stack
        self._slabs = list(stack)
        self._rr2 = reg_ready
        self._scratch2 = np.empty((n, lanes), dtype=np.float64)
        self._mask2d = np.zeros((n, lanes), dtype=bool)
        self._masks_key = None
        self._all_full = False
        self._active_total = 0
        self._full_warp_mask = (1 << lanes) - 1
        self._lane_bits = np.left_shift(1, np.arange(lanes, dtype=np.int64))
        self._slot_cache = {}
        self._stream_enabled = self._is_rr and n >= 2
        # Streaming keeps pc (uniform) and next-issue cycles core-resident;
        # warp objects go stale between commits and are synced lazily before
        # anything per-warp (fallback cycles, scalar/SFU handlers) runs.
        self._lazy = False
        self._pc_u = -1
        self._ni = np.zeros(n, dtype=np.int64)
        # Plan-attempt gate: after a divergent scan, re-attempt only when the
        # rotation returns to the last phase uniformity was observed at (or
        # after an event jump), so long divergent phases don't pay a failed
        # plan per visited cycle.
        self._div_gate = False
        self._probe = True
        # Non-rr schedulers never stream, so the probe phase is moot there
        # (and ``_rr_next`` only exists under round-robin).
        self._probe_rr = self._rr_next if self._is_rr else 0

    def _refresh_masks(self) -> None:
        """Recompute the (warps, lanes) bool mask when any warp's mask moved."""
        warps = self.warps
        key = [w.active_mask for w in warps]
        if key == self._masks_key:
            return
        self._masks_key = key
        full = self._full_warp_mask
        total = 0
        all_full = True
        for mask in key:
            total += mask.bit_count()
            if mask != full:
                all_full = False
        self._all_full = all_full
        self._active_total = total
        if not all_full:
            mask2d = self._mask2d
            mask2d[:] = False
            for k, w in enumerate(warps):
                mask2d[k, w.active_lanes()] = True

    def _round_slots(self, start: int):
        """(order, slots): warp indices in issue order for rotation ``start``
        and, inverse, each warp's slot as an int64 array in attach order."""
        cached = self._slot_cache.get(start)
        if cached is None:
            n = len(self.warps)
            rr_n = self._rr_n
            order = [i for off in range(rr_n)
                     if (i := (start + off) % rr_n) < n]
            slots = np.empty(n, dtype=np.int64)
            for k, i in enumerate(order):
                slots[i] = k
            cached = (order, slots)
            self._slot_cache[start] = cached
        return cached


def _sync_warps(core: BatchSimtCore) -> None:
    """Write the core-resident streaming state back into the warp objects
    (their pc/next-issue fields are stale between lazy commits)."""
    if not core._lazy:
        return
    core._lazy = False
    pc = core._pc_u
    ni = core._ni
    for k, w in enumerate(core.warps):
        w.pc = pc
        w.next_issue_cycle = int(ni[k])
        w._d_cache = None


def _issue_slots(core: BatchSimtCore, order, op, pc: int, cycle: int,
                 spacing: int, tracer) -> int:
    """Issue ``op`` for the warps of ``order`` through the fast per-warp
    handler, slot ``k`` at ``cycle + k * spacing``, exactly as the issue loop
    would; returns the active lanes issued."""
    warps = core.warps
    run = op.run
    dst = op.dst
    default_latency = op.latency
    instr = op.instr
    core_id = core.core_id
    lanes_total = 0
    for k, i in enumerate(order):
        w = warps[i]
        at = cycle + k * spacing
        lanes_total += w.active_mask.bit_count()
        if tracer is not None:
            tracer.record(cycle=at, core=core_id, warp=w.warp_id, pc=pc,
                          opcode=instr.opcode, mask=w.active_mask,
                          section=instr.section)
        latency = run(core, w, at)
        if latency is None:
            latency = default_latency
        if dst is not None:
            w.reg_ready[dst] = at + latency
        w.next_issue_cycle = at + 1
        w._d_cache = None
    return lanes_total


# ----------------------------------------------------------------------
# window plans.  Every plan describes a window starting at the attempt cycle:
#   issue cycles   cycle + offset[k] for slot k (offsets in *attach* order
#                  are what the guards and scoreboards consume)
#   .window        cycles consumed: last issue offset + 1
#   .gaps          non-issue cycles the reference loop would still visit
#                  (the cycle right after an issue whose FU hold spans more
#                  than one cycle) -- they charge every busy core one stall
#   .ragged        True when the issue cycles are not simply cycle+slot;
#                  ragged plans stream only when they are the sole streamer
# ----------------------------------------------------------------------
class _TracePlan:
    """``rounds`` consecutive ewise PCs streamed for all warps of one core."""

    __slots__ = ("core", "n", "rounds", "order", "slots", "trace", "pc")
    is_mem = False
    ragged = False
    gaps = 0

    def __init__(self, core, n, rounds, order, slots, trace, pc):
        self.core = core
        self.n = n
        self.rounds = rounds
        self.order = order
        self.slots = slots
        self.trace = trace
        self.pc = pc

    def window(self, rounds: int) -> int:
        return rounds * self.n

    def commit(self, cycle: int, rounds: int, tracer) -> None:
        core = self.core
        core._refresh_masks()
        sel = None if core._all_full else core._mask2d
        slabs = core._slabs
        scratch = core._scratch2
        ops = self.trace.ops
        n = self.n
        pc0 = self.pc
        pc_issues = core._pc_issues
        pc_lanes = core._pc_lanes
        active_total = core._active_total
        for j in range(rounds):
            ops[j].run2d(slabs, scratch, sel)
            pc_issues[pc0 + j] += n
            pc_lanes[pc0 + j] += active_total
        rr2 = core._rr2
        base = cycle + self.slots
        trace = self.trace
        for j, dst, lat in zip(trace.write_rounds, trace.write_dsts,
                               trace.write_latencies):
            if j >= rounds:
                break
            rr2[:, dst] = base + (j * n + lat)
        next_issue_base = cycle + (rounds - 1) * n + 1
        new_pc = pc0 + rounds
        core._rr_next = (self.order[-1] + 1) % core._rr_n
        if tracer is None:
            core._pc_u = new_pc
            np.add(self.slots, next_issue_base, out=core._ni)
            core._lazy = True
            return
        warps = core.warps
        for k, i in enumerate(self.order):
            w = warps[i]
            w.pc = new_pc
            w.next_issue_cycle = next_issue_base + k
            w._d_cache = None
        core._lazy = False
        decode = core._decode
        core_id = core.core_id
        for j in range(rounds):
            instr = decode[pc0 + j].instr
            round_start = cycle + j * n
            for k, i in enumerate(self.order):
                w = warps[i]
                tracer.record(cycle=round_start + k, core=core_id,
                              warp=w.warp_id, pc=pc0 + j,
                              opcode=instr.opcode, mask=w.active_mask,
                              section=instr.section)


class _ScalarPlan:
    """One non-batchable PC streamed by running the fast per-warp handlers in
    slot order -- the scheduler scan and readiness re-checks are skipped, the
    handlers themselves are the proven fast-engine ones."""

    __slots__ = ("core", "n", "order", "op", "pc")
    is_mem = False
    ragged = False
    gaps = 0
    rounds = 1

    def __init__(self, core, n, order, op, pc):
        self.core = core
        self.n = n
        self.order = order
        self.op = op
        self.pc = pc

    def window(self, rounds: int) -> int:
        return self.n

    def commit(self, cycle: int, rounds: int, tracer) -> None:
        core = self.core
        _sync_warps(core)        # the fast handlers read and write warp state
        op = self.op
        control = op.control
        if control is not None and tracer is None:
            lanes_total = _COMMIT_CONTROL[control](self, cycle)
        else:
            lanes_total = _issue_slots(core, self.order, op, self.pc, cycle,
                                       1, tracer)
        core._pc_issues[self.pc] += self.n
        core._pc_lanes[self.pc] += lanes_total
        core._rr_next = (self.order[-1] + 1) % core._rr_n
        # Control handlers may have moved masks; rebuild lazily next round.
        core._masks_key = None

    # -- batched control rounds -----------------------------------------
    # Inline replicas of the reference control handlers with the per-lane
    # predicate loops vectorised over the whole round (one slab compare and
    # bit-pack).  Stack entries, masks, pcs, counters and error messages
    # match the reference handlers exactly.

    def _commit_split(self, cycle: int) -> int:
        core = self.core
        warps = core.warps
        instr = self.op.instr
        (cond_reg,) = instr.srcs
        taken_all = (core._slabs[cond_reg] != 0.0) @ core._lane_bits
        else_pc, join_pc = instr.target, instr.target2
        pc1 = self.pc + 1
        lanes_total = 0
        divergent = 0
        for k, i in enumerate(self.order):
            w = warps[i]
            full = w.active_mask
            lanes_total += full.bit_count()
            taken = int(taken_all[i]) & full
            not_taken = full & ~taken
            if taken and not_taken:
                w.simt_stack.append(("else", not_taken, full, else_pc,
                                     join_pc))
                w.active_mask = taken
                w.pc = pc1
                divergent += 1
            elif taken:
                w.simt_stack.append(("join", full, join_pc))
                w.pc = pc1
            else:
                w.simt_stack.append(("join", full, join_pc))
                w.pc = else_pc
            w.next_issue_cycle = cycle + k + 1
            w._d_cache = None
        core.counters.divergent_branches += divergent
        return lanes_total

    def _commit_join(self, cycle: int) -> int:
        core = self.core
        warps = core.warps
        pc = self.pc
        lanes_total = 0
        for k, i in enumerate(self.order):
            w = warps[i]
            lanes_total += w.active_mask.bit_count()
            if not w.simt_stack:
                raise SimulationError(
                    f"core {core.core_id} warp {w.warp_id}: JOIN with empty "
                    f"SIMT stack at pc {pc}"
                )
            entry = w.simt_stack.pop()
            if entry[0] == "else":
                _, not_taken, full, else_pc, join_pc = entry
                w.simt_stack.append(("join", full, join_pc))
                w.active_mask = not_taken
                w.pc = else_pc
            elif entry[0] == "join":
                _, mask, join_pc = entry
                w.active_mask = mask
                w.pc = join_pc
            else:
                raise SimulationError(
                    f"core {core.core_id} warp {w.warp_id}: JOIN found a "
                    f"{entry[0]!r} entry"
                )
            w.next_issue_cycle = cycle + k + 1
            w._d_cache = None
        return lanes_total

    def _commit_loop_begin(self, cycle: int) -> int:
        warps = self.core.warps
        pc1 = self.pc + 1
        lanes_total = 0
        for k, i in enumerate(self.order):
            w = warps[i]
            mask = w.active_mask
            lanes_total += mask.bit_count()
            w.simt_stack.append(("loop", mask))
            w.pc = pc1
            w.next_issue_cycle = cycle + k + 1
            w._d_cache = None
        return lanes_total

    def _commit_loop_end(self, cycle: int) -> int:
        core = self.core
        warps = core.warps
        instr = self.op.instr
        (cond_reg,) = instr.srcs
        alive_all = (core._slabs[cond_reg] != 0.0) @ core._lane_bits
        target = instr.target
        pc1 = self.pc + 1
        lanes_total = 0
        divergent = 0
        for k, i in enumerate(self.order):
            w = warps[i]
            full = w.active_mask
            lanes_total += full.bit_count()
            alive = int(alive_all[i]) & full
            if alive:
                if alive != full:
                    divergent += 1
                w.active_mask = alive
                w.pc = target
            else:
                if not w.simt_stack or w.simt_stack[-1][0] != "loop":
                    raise SimulationError(
                        f"core {core.core_id} warp {w.warp_id}: LOOP_END "
                        f"without LOOP_BEGIN"
                    )
                _, mask = w.simt_stack.pop()
                w.active_mask = mask
                w.pc = pc1
            w.next_issue_cycle = cycle + k + 1
            w._d_cache = None
        core.counters.divergent_branches += divergent
        return lanes_total

    def _commit_jmp(self, cycle: int) -> int:
        warps = self.core.warps
        target = self.op.instr.target
        lanes_total = 0
        for k, i in enumerate(self.order):
            w = warps[i]
            lanes_total += w.active_mask.bit_count()
            w.pc = target
            w.next_issue_cycle = cycle + k + 1
            w._d_cache = None
        return lanes_total


class _HaltPlan:
    """One HALT round: every warp retires on its slot and the core drains.

    Streaming the drain matters: falling back would pay one visited cycle per
    warp, each rescanning the whole (mostly halted) round-robin order.
    """

    __slots__ = ("core", "n", "order", "op", "pc")
    is_mem = False
    ragged = False
    gaps = 0
    rounds = 1

    def __init__(self, core, n, order, op, pc):
        self.core = core
        self.n = n
        self.order = order
        self.op = op
        self.pc = pc

    def window(self, rounds: int) -> int:
        return self.n

    def commit(self, cycle: int, rounds: int, tracer) -> None:
        core = self.core
        _sync_warps(core)
        warps = core.warps
        pc = self.pc
        instr = self.op.instr
        core_id = core.core_id
        lanes_total = 0
        for k, i in enumerate(self.order):
            w = warps[i]
            lanes_total += w.active_mask.bit_count()
            if tracer is not None:
                tracer.record(cycle=cycle + k, core=core_id, warp=w.warp_id,
                              pc=pc, opcode=instr.opcode, mask=w.active_mask,
                              section=instr.section)
            w.halted = True
            w.next_issue_cycle = cycle + k + 1
            w._d_cache = None
        core._pc_issues[pc] += self.n
        core._pc_lanes[pc] += lanes_total
        core._rr_next = (self.order[-1] + 1) % core._rr_n


_COMMIT_CONTROL = {
    "split": _ScalarPlan._commit_split,
    "join": _ScalarPlan._commit_join,
    "loop_begin": _ScalarPlan._commit_loop_begin,
    "loop_end": _ScalarPlan._commit_loop_end,
    "jmp": _ScalarPlan._commit_jmp,
}


class _SfuPlan:
    """One interval->1 PC streamed with the spacing its FU hold forces.

    Slot ``k`` issues at ``cycle + k * interval``: the previous issue holds
    the unit until exactly that cycle, so no warp still waiting at this PC
    can issue in between.  Warps that already issued sit at the *next* PC --
    the steal guard in :func:`_plan_core` proves none of them becomes ready
    before the final issue cycle, which forces the reference schedule.
    """

    __slots__ = ("core", "n", "order", "op", "pc", "interval")
    is_mem = False
    ragged = True
    rounds = 1

    def __init__(self, core, n, order, op, pc):
        self.core = core
        self.n = n
        self.order = order
        self.op = op
        self.pc = pc
        self.interval = op.interval

    @property
    def gaps(self) -> int:
        # After each issue except the last, the reference loop visits the
        # next cycle, finds nothing ready (FU held) and charges one stall.
        return self.n - 1

    def window(self, rounds: int) -> int:
        return (self.n - 1) * self.interval + 1

    def commit(self, cycle: int, rounds: int, tracer) -> None:
        core = self.core
        _sync_warps(core)        # the fast handlers read and write warp state
        interval = self.interval
        lanes_total = _issue_slots(core, self.order, self.op, self.pc, cycle,
                                   interval, tracer)
        core._fu_busy[self.op.unit_index] = cycle + self.n * interval
        core._pc_issues[self.pc] += self.n
        core._pc_lanes[self.pc] += lanes_total
        core._rr_next = (self.order[-1] + 1) % core._rr_n
        core._masks_key = None


class _MemPlan:
    """A memory round: one 2-D gather/scatter plus per-warp hierarchy walks.

    Planned when every warp's lanes are fully active and every coalesced line
    is in bounds.  Warps whose access spans several lines hold the LSU for
    that many cycles, spacing the following slots exactly as the reference
    FU hold would; :func:`run_batch` sequences walks (and data when stores
    are present) across cores in (cycle, core) order.
    """

    __slots__ = ("core", "n", "order", "offsets", "op", "pc", "addr", "lines",
                 "line_counts", "latencies", "is_load", "single", "ragged",
                 "gaps", "_window", "_fu_until")
    is_mem = True
    rounds = 1

    def __init__(self, core, n, order, offsets, op, pc, addr, lines,
                 line_counts, is_load):
        self.core = core
        self.n = n
        self.order = order
        self.offsets = offsets        # warp -> issue offset, attach order
        self.op = op
        self.pc = pc
        self.addr = addr              # (warps, lanes) int64, attach order
        # ``line_counts is None`` marks the common fully-coalesced round:
        # every warp touches exactly one line, ``lines`` is the bare line per
        # slot in issue order and the offsets are simply the slots.
        self.lines = lines
        self.line_counts = line_counts  # per slot, issue order
        self.is_load = is_load
        self.latencies = np.ones(n, dtype=np.int64) if is_load else None
        self.gaps = 0
        self._fu_until = 0            # FU hold past the last multi-line issue
        if line_counts is None:
            self.single = True
            self.ragged = False
            self._window = n
            return
        self.single = False
        offset = 0
        for k, count in enumerate(line_counts):
            if count > 1:
                if k < n - 1:
                    self.gaps += 1
                self._fu_until = offset + count
            offset += count
        # A hold on the *last* slot spills past the window without perturbing
        # any issue cycle inside it, so only interior holds make the plan
        # ragged (non-cycle-aligned).
        self.ragged = self.gaps > 0
        self._window = int(offsets[order[-1]]) + 1

    def window(self, rounds: int) -> int:
        return self._window

    def data_batched(self) -> None:
        """The whole round's values in one numpy call (safe when no other
        core's store interleaves with this round)."""
        core = self.core
        slabs = core._slabs
        op = self.op
        if self.is_load:
            core.memory._data.take(self.addr, out=slabs[op.dst])
        else:
            order = self.order
            addr = self.addr
            values = slabs[op.value_reg]
            if order[0] != 0:
                # Flattened duplicate addresses resolve last-wins, so rows
                # must be laid out in issue (slot) order first.
                idx = np.asarray(order, dtype=np.intp)
                addr = addr[idx]
                values = values[idx]
            core.memory._data[addr.ravel()] = values.ravel()

    def exec_one(self, k: int, cycle: int) -> None:
        """Slot ``k``'s data + walk, for store-interleaved multi-core windows."""
        i = self.order[k]
        core = self.core
        op = self.op
        if self.is_load:
            core.memory._data.take(self.addr[i], out=core._slabs[op.dst][i])
        else:
            core.memory._data[self.addr[i]] = core._slabs[op.value_reg][i]
        self.walk_one(k, cycle)

    def walk_one(self, k: int, cycle: int) -> None:
        core = self.core
        if self.single:
            if self.is_load:
                self.latencies[self.order[k]] = core.hierarchy.load(
                    core.core_id, (self.lines[k],), cycle + k)
            else:
                core.hierarchy.store(core.core_id, (self.lines[k],), cycle + k)
            return
        i = self.order[k]
        if self.is_load:
            self.latencies[i] = core.hierarchy.load(
                core.core_id, self.lines[i], cycle + int(self.offsets[i]))
        else:
            core.hierarchy.store(core.core_id, self.lines[i],
                                 cycle + int(self.offsets[i]))

    def walks(self, cycle: int) -> None:
        if self.single and not self.is_load:
            # Slot k stores line k at cycle + k: one walk covers the round.
            self.core.hierarchy.store(self.core.core_id, self.lines, cycle)
            return
        for k in range(self.n):
            self.walk_one(k, cycle)

    def bookkeep(self, cycle: int, tracer) -> None:
        core = self.core
        op = self.op
        n = self.n
        pc = self.pc
        total_lines = n if self.single else sum(self.line_counts)
        core._pc_issues[pc] += n
        core._pc_lanes[pc] += core._active_total
        counters = core.counters
        if self.is_load:
            counters.loads += n
            counters.load_lines += total_lines
            core._rr2[:, op.dst] = cycle + self.offsets + self.latencies
        else:
            counters.stores += n
            counters.store_lines += total_lines
        if self._fu_until:
            core._fu_busy[op.unit_index] = cycle + self._fu_until
        offsets = self.offsets
        core._rr_next = (self.order[-1] + 1) % core._rr_n
        new_pc = pc + 1
        if tracer is None:
            core._pc_u = new_pc
            np.add(offsets, cycle + 1, out=core._ni)
            core._lazy = True
            return
        warps = core.warps
        instr = op.instr
        core_id = core.core_id
        for i in self.order:
            w = warps[i]
            at = cycle + int(offsets[i])
            tracer.record(cycle=at, core=core_id, warp=w.warp_id,
                          pc=pc, opcode=instr.opcode, mask=w.active_mask,
                          section=instr.section)
            w.pc = new_pc
            w.next_issue_cycle = at + 1
            w._d_cache = None
        core._lazy = False


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
def _steal_safe(core: BatchSimtCore, op, pc: int, t_attach, tail_abs: int,
                is_load: bool) -> bool:
    """True iff no issued warp can issue its next instruction inside a ragged
    window.

    After slot ``k`` issues at ``t_attach[i]``, its warp advances to
    ``pc + 1`` while later slots are still FU-gated -- at any non-issue cycle
    of the window a ready issued warp would win the round-robin scan, which a
    streamed round cannot reproduce.  Cycles from ``tail_abs`` (the first
    issue after the last interior FU hold) to the window's end are contiguous
    issue cycles where rotation priority always belongs to the issuing slot,
    so the round is exact iff every issued warp's next-instruction readiness
    lands at or past ``tail_abs``.  Readiness is computed exactly: the warp's
    own spacing, the live scoreboard, the round's own destination write, and
    the next op's FU gate.  A next op on the round's *own* unit is gated by
    the round's holds through every gap, which is sufficient on its own.
    """
    decode = core._decode
    pcn = pc + 1
    if pcn >= len(decode):
        return False                 # would run off: let the fallback raise
    (_run, _dst, check_regs, _lat, _interval, unit_index, fu_check,
     _is_mem) = decode[pcn].tup
    if fu_check and unit_index == op.unit_index:
        return True
    ready = t_attach + 1
    rr2 = core._rr2
    for reg in check_regs:
        if reg == op.dst:
            if is_load:
                return False         # walk latency unknown until commit
            cand = t_attach + op.latency
        else:
            cand = rr2[:, reg]
        ready = np.maximum(ready, cand)
    if fu_check:
        ready = np.maximum(ready, core._fu_busy[unit_index])
    return bool(np.all(ready >= tail_abs))


def _plan_core(core: BatchSimtCore, cycle: int):
    """Return a streaming plan for ``core`` at ``cycle``, or None.

    A non-None plan is a *proof obligation met*: committing it reproduces
    exactly the issues the fast/reference loop would perform over the window.
    """
    warps = core.warps
    n = len(warps)
    if core._lazy:
        # Streaming state is core-resident: the pc is uniform by
        # construction (lazy commits only ever advance all warps together)
        # and no streamed op parks a warp at a barrier.
        pc = core._pc_u
        if pc == core._no_stream_pc:
            return None
        own = core._ni
    else:
        w0 = warps[0]
        pc = w0.pc
        if pc == core._no_stream_pc or w0.at_barrier:
            return None
        for k in range(1, n):
            w = warps[k]
            if w.pc != pc or w.at_barrier:
                core._div_gate = True
                return None
        core._div_gate = False
        core._probe_rr = core._rr_next
        own = np.fromiter((w.next_issue_cycle for w in warps), dtype=np.int64,
                          count=n)
    ops = core._compiled.ops
    if pc >= len(ops):
        return None                      # ran off: fallback raises exactly
    op = ops[pc]
    kind = op.kind
    if kind == "stop":
        if op.instr.opcode is Opcode.HALT and core._barrier_waiting == 0:
            # All n warps are in the round, so none can be parked at a
            # barrier this HALT would have to release.
            order, slots = core._round_slots(core._rr_next)
            if not np.all(own <= cycle + slots):
                return None
            return _HaltPlan(core, n, order, op, pc)
        core._no_stream_pc = pc
        return None
    order, slots = core._round_slots(core._rr_next)
    rr2 = core._rr2

    if kind == "ewise":
        # Round 0's registers are entry guards of the trace itself.
        if not np.all(own <= cycle + slots):
            return None
        trace = core._compiled.traces[pc]
        min_warps = trace.min_warps
        length = trace.length
        rounds = 0
        while rounds < length and min_warps[rounds] <= n:
            rounds += 1
        regs = trace.livein_regs
        if regs.size:
            entry_limit = cycle + trace.livein_rounds * n + slots[:, None]
            ok = (rr2[:, regs] <= entry_limit).all(axis=0)
            if not ok.all():
                first_bad = int(trace.livein_rounds[int(np.argmin(ok))])
                if first_bad < rounds:
                    rounds = first_bad
            if rounds == 0:
                return None
        return _TracePlan(core, n, rounds, order, slots, trace, pc)

    if op.check_regs:
        # First maximum makes a fresh array: ``own`` may alias ``core._ni``.
        own = np.maximum(own, rr2[:, op.check_regs[0]])
        for reg in op.check_regs[1:]:
            np.maximum(own, rr2[:, reg], out=own)

    if kind == "scalar":
        if not np.all(own <= cycle + slots):
            return None
        return _ScalarPlan(core, n, order, op, pc)

    if kind == "sfu":
        if core._fu_busy[op.unit_index] > cycle:
            return None
        t_attach = cycle + slots * op.interval
        if not np.all(own <= t_attach):
            return None
        # Every interior issue opens a gap; the contiguous tail is just the
        # last issue cycle.
        if not _steal_safe(core, op, pc, t_attach,
                           cycle + (n - 1) * op.interval, False):
            return None
        return _SfuPlan(core, n, order, op, pc)

    # load / store round
    if core._fu_busy[op.unit_index] > cycle:
        return None
    core._refresh_masks()
    if not core._all_full:
        return None
    addr = core._slabs[op.addr_reg].astype(np.int64)
    if op.offset:
        addr += op.offset
    lines2d = op.to_lines(addr)
    if int(lines2d.min()) < 0 or int(lines2d.max()) >= core._full_lines:
        return None                      # fallback runs the exact raising path
    line0 = lines2d[:, 0]
    if (lines2d == line0[:, None]).all():
        # Fully coalesced round: every warp touches one line, so there is no
        # FU hold and the issue offsets are simply the slots.
        if not np.all(own <= cycle + slots):
            return None
        return _MemPlan(core, n, order, slots, op, pc, addr,
                        line0.take(order).tolist(), None, op.kind == "load")
    # Coalesce per warp in first-appearance lane order (the fast coalescer's
    # request order), then derive each slot's issue offset from the FU hold
    # the preceding slots' line counts force.
    lines = [tuple(dict.fromkeys(row)) for row in lines2d.tolist()]
    line_counts = [len(lines[i]) for i in order]      # issue (slot) order
    offsets = np.empty(n, dtype=np.int64)             # attach order
    offset = 0
    for k, i in enumerate(order):
        offsets[i] = offset
        offset += line_counts[k]
    if not np.all(own <= cycle + offsets):
        return None
    tail_k = -1                       # last interior slot holding the LSU
    for k in range(n - 1):
        if line_counts[k] > 1:
            tail_k = k
    if tail_k >= 0 and not _steal_safe(
            core, op, pc, cycle + offsets,
            cycle + int(offsets[order[tail_k + 1]]), op.kind == "load"):
        return None
    return _MemPlan(core, n, order, offsets, op, pc, addr, lines, line_counts,
                    op.kind == "load")


# ----------------------------------------------------------------------
# the run loop
# ----------------------------------------------------------------------
def run_batch(active_cores: List[BatchSimtCore], counters: PerfCounters,
              max_cycles: Optional[int], tracer) -> int:
    """Simulate one kernel call and return its cycle count.

    The fast engine's loop (:func:`~repro.sim.fastcore.run_fast`) with
    streaming windows plugged in: before each visited cycle,
    :func:`_stream_window` tries to commit a window of cycles at once, and
    every cycle it cannot prove is visited by the fast loop itself.
    """
    for core in active_cores:
        if core.busy:
            core._adopt()
    return run_fast(active_cores, counters, max_cycles, tracer,
                    windows=_stream_window)


def _stream_window(busy, hints, cycle: int, jumped: bool,
                   max_cycles: Optional[int], tracer):
    """One streaming attempt at ``cycle`` (the ``windows`` hook of
    :func:`~repro.sim.fastcore.run_fast`).

    A window needs every busy core accounted for: either it streams a plan,
    or its cached event hint proves it cannot issue before the window ends (a
    pure staller, charged exactly the stalls the reference loop would
    record).  Tracing restricts streaming to single-core calls so records
    interleave in the reference's (cycle, core) order.  Returns ``(window,
    issues, active_cycles, stalls, drained)`` for a committed window, else
    ``None`` with every lazy core synced back into its warps.
    """
    if jumped:
        # Stalls compress warp spacing; divergent cores may have
        # reconverged, so let everyone re-attempt a plan once.
        for entry in busy:
            entry[0]._probe = True
    window = 0
    if tracer is None or len(busy) == 1:
        plans = []
        planned = []
        idle = 0
        min_idle_hint = NEVER
        for i, entry in enumerate(busy):
            if hints[i] > cycle:
                # Cannot issue now; may still be idle for the window.
                idle += 1
                if hints[i] < min_idle_hint:
                    min_idle_hint = hints[i]
                continue
            core = entry[0]
            if core._stream_enabled and (
                    core._lazy or not core._div_gate or core._probe
                    or core._rr_next == core._probe_rr):
                core._probe = False
                plan = _plan_core(core, cycle)
            else:
                plan = None
            if plan is None or (plans and plan.n != plans[0].n):
                plans = None
                break
            plans.append(plan)
            planned.append(i)
        if plans:
            if len(plans) == 1:
                plan = plans[0]
                rounds = plan.rounds
                window = plan.window(rounds)
                gaps = plan.gaps
            else:
                # Multi-core windows stay cycle-aligned: every streaming
                # core must issue on every cycle of the window.
                rounds = min(plan.rounds for plan in plans)
                window = 0 if any(plan.ragged for plan in plans) \
                    else rounds * plans[0].n
                gaps = 0
            if window and idle and min_idle_hint < cycle + window:
                # Shrink uniform windows until the stalled cores provably
                # sleep through them; ragged windows cannot shrink.
                if gaps == 0 and not plans[0].ragged:
                    n0 = plans[0].n
                    fit = int((min_idle_hint - cycle) // n0)
                    rounds = min(rounds, fit)
                    window = rounds * n0 if rounds >= 1 else 0
                else:
                    window = 0
            if window and max_cycles is not None \
                    and cycle + window - 1 > max_cycles:
                window = 0            # let the visited cycles raise on schedule
    if not window:
        for entry in busy:
            if entry[0]._lazy:
                _sync_warps(entry[0])
        return None
    _commit_window(plans, cycle, rounds, tracer)
    for i in planned:
        hints[i] = -1.0
    drained = any(type(plan) is _HaltPlan for plan in plans)
    if gaps or plans[0].ragged:
        # Ragged single plan: the reference visits each issue cycle (the
        # streamer issues, everyone else stalls) plus the cycle right after
        # each multi-cycle FU hold (nobody issues, every busy core stalls)
        # before event-jumping.
        n0 = plans[0].n
        return (window, n0, n0, gaps * len(busy) + (len(busy) - 1) * n0,
                drained)
    # Uniform window: every cycle is visited, every streaming core issues on
    # each of them, idle cores stall through.
    return window, window * len(plans), window, window * idle, drained


def _commit_window(plans, cycle: int, rounds: int, tracer) -> None:
    """Commit one streaming window: ``rounds`` rounds on every planned core.

    Non-memory plans commute (they touch only their own core's state plus
    commutative counters) and commit whole.  Memory plans share the L2/DRAM
    and the backing store, so their walks -- and their data when more than
    one core is storing -- are sequenced in the reference's (cycle, core)
    order.
    """
    mem_plans = [plan for plan in plans if plan.is_mem]
    for plan in plans:
        if not plan.is_mem:
            plan.commit(cycle, rounds, tracer)
    if not mem_plans:
        return
    timing = RECORDER.enabled
    walk_started = _perf_counter() if timing else 0.0
    if len(mem_plans) == 1:
        plan = mem_plans[0]
        plan.data_batched()
        plan.walks(cycle)
    elif any(not plan.is_load for plan in mem_plans):
        for k in range(mem_plans[0].n):
            for plan in mem_plans:
                plan.exec_one(k, cycle)
    else:
        for plan in mem_plans:
            plan.data_batched()
        for k in range(mem_plans[0].n):
            for plan in mem_plans:
                plan.walk_one(k, cycle)
    if timing:
        RECORDER.count("engine.memory.walk_seconds",
                       _perf_counter() - walk_started)
        RECORDER.count("engine.memory.walks", sum(plan.n for plan in mem_plans))
    for plan in mem_plans:
        plan.bookkeep(cycle, tracer)
