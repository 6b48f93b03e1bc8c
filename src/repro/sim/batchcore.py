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
* Every streamed window is cycle-aligned: slot ``k`` issues at
  ``cycle + k`` on every streaming core.  A round whose op holds a
  functional unit for more than its own issue cycle (an initiation interval
  other than 1, a memory access spanning several cache lines) would space
  its issues apart, so it is never planned and runs on the fast engine's
  per-warp handlers instead.
* Memory walks still run per warp in slot order so LRU state and DRAM-queue
  timing mutate in the same order as the reference engine.  Cross-core
  windows interleave walks (and, when stores are involved, data) in
  (cycle, core) order.
* Cores that cannot stream but whose cached ``next_event_hint`` proves they
  cannot issue inside the window are carried as pure stallers -- exactly what
  the reference loop would have recorded for them.
* Everything the guards cannot prove -- divergent PCs, barriers, masked,
  multi-line or out-of-bounds memory, functional-unit holds, GTO
  scheduling, drained warps -- is a visited cycle of the fast engine's
  event-skipping loop, which is itself proven bit-identical to the
  reference: streaming windows are a hook of
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
from repro.sim.core import NEVER
from repro.sim.fastcore import (
    FastSimtCore,
    _PARKED,
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
        self._slot_cache = {}
        self._stream_enabled = self._is_rr and n >= 2
        # Streaming keeps pc (uniform) and next-issue cycles core-resident;
        # warp objects go stale between commits and are synced lazily before
        # anything per-warp (fallback cycles, scalar handlers) runs.
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
                 tracer) -> int:
    """Issue ``op`` for the warps of ``order`` through the fast per-warp
    handler, slot ``k`` at ``cycle + k``, exactly as the issue loop would;
    returns the active lanes issued."""
    warps = core.warps
    run = op.run
    dst = op.dst
    default_latency = op.latency
    instr = op.instr
    core_id = core.core_id
    lanes_total = 0
    for k, i in enumerate(order):
        w = warps[i]
        at = cycle + k
        lanes_total += w.active_mask.bit_count()
        if tracer is not None:
            tracer.record(cycle=at, core=core_id, warp=w.warp_id, pc=pc,
                          opcode=instr.opcode, mask=w.active_mask,
                          section=instr.section)
        w._d_cache = None
        latency = run(core, w, at)
        if latency is None:
            latency = default_latency
        if dst is not None:
            w.reg_ready[dst] = at + latency
        w.next_issue_cycle = at + 1
    return lanes_total


# ----------------------------------------------------------------------
# window plans.  Every plan describes a cycle-aligned window starting at the
# attempt cycle: slot ``k`` of round ``j`` issues at ``cycle + j * n + k``,
# and ``rounds`` rounds consume ``rounds * n`` cycles.
# ----------------------------------------------------------------------
class _TracePlan:
    """``rounds`` consecutive ewise PCs streamed for all warps of one core."""

    __slots__ = ("core", "n", "rounds", "order", "slots", "trace", "pc")
    is_mem = False

    def __init__(self, core, n, rounds, order, slots, trace, pc):
        self.core = core
        self.n = n
        self.rounds = rounds
        self.order = order
        self.slots = slots
        self.trace = trace
        self.pc = pc

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
    rounds = 1

    def __init__(self, core, n, order, op, pc):
        self.core = core
        self.n = n
        self.order = order
        self.op = op
        self.pc = pc

    def commit(self, cycle: int, rounds: int, tracer) -> None:
        core = self.core
        _sync_warps(core)        # the fast handlers read and write warp state
        lanes_total = _issue_slots(core, self.order, self.op, self.pc, cycle,
                                   tracer)
        core._pc_issues[self.pc] += self.n
        core._pc_lanes[self.pc] += lanes_total
        core._rr_next = (self.order[-1] + 1) % core._rr_n
        # Control handlers may have moved masks; rebuild lazily next round.
        core._masks_key = None


class _HaltPlan:
    """One HALT round: every warp retires on its slot and the core drains.

    Streaming the drain matters: falling back would pay one visited cycle per
    warp, each rescanning the whole (mostly halted) round-robin order.
    """

    __slots__ = ("core", "n", "order", "op", "pc")
    is_mem = False
    rounds = 1

    def __init__(self, core, n, order, op, pc):
        self.core = core
        self.n = n
        self.order = order
        self.op = op
        self.pc = pc

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
            w._d_cache, w._ready_bound = _PARKED, NEVER     # as HALT's handler parks
        core._pc_issues[pc] += self.n
        core._pc_lanes[pc] += lanes_total
        core._rr_next = (self.order[-1] + 1) % core._rr_n


class _MemPlan:
    """A memory round: one 2-D gather/scatter plus per-warp hierarchy walks.

    Planned when every warp's lanes are fully active and every warp touches
    exactly one in-bounds cache line, so no slot holds the LSU past its own
    issue cycle and slot ``k`` issues at ``cycle + k``.
    :func:`_commit_window` sequences walks (and data when stores are
    present) across cores in (cycle, core) order.
    """

    __slots__ = ("core", "n", "order", "slots", "op", "pc", "addr", "lines",
                 "latencies", "is_load")
    is_mem = True
    rounds = 1

    def __init__(self, core, n, order, slots, op, pc, addr, lines, is_load):
        self.core = core
        self.n = n
        self.order = order
        self.slots = slots            # warp -> slot, attach order
        self.op = op
        self.pc = pc
        self.addr = addr              # (warps, lanes) int64, attach order
        self.lines = lines            # the one line per slot, issue order
        self.is_load = is_load
        self.latencies = np.ones(n, dtype=np.int64) if is_load else None

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
        if self.is_load:
            self.latencies[self.order[k]] = core.hierarchy.load(
                core.core_id, (self.lines[k],), cycle + k)
        else:
            core.hierarchy.store(core.core_id, (self.lines[k],), cycle + k)

    def walks(self, cycle: int) -> None:
        if not self.is_load:
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
        core._pc_issues[pc] += n
        core._pc_lanes[pc] += core._active_total
        counters = core.counters
        if self.is_load:
            counters.loads += n
            counters.load_lines += n
            core._rr2[:, op.dst] = cycle + self.slots + self.latencies
        else:
            counters.stores += n
            counters.store_lines += n
        core._rr_next = (self.order[-1] + 1) % core._rr_n
        new_pc = pc + 1
        if tracer is None:
            core._pc_u = new_pc
            np.add(self.slots, cycle + 1, out=core._ni)
            core._lazy = True
            return
        warps = core.warps
        instr = op.instr
        core_id = core.core_id
        for k, i in enumerate(self.order):
            w = warps[i]
            tracer.record(cycle=cycle + k, core=core_id, warp=w.warp_id,
                          pc=pc, opcode=instr.opcode, mask=w.active_mask,
                          section=instr.section)
            w.pc = new_pc
            w.next_issue_cycle = cycle + k + 1
            w._d_cache = None
        core._lazy = False


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
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
    if not np.all(own <= cycle + slots):
        return None

    if kind == "scalar":
        return _ScalarPlan(core, n, order, op, pc)

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
    if not (lines2d == line0[:, None]).all():
        return None                      # a multi-line warp holds the LSU
    return _MemPlan(core, n, order, slots, op, pc, addr,
                    line0.take(order).tolist(), op.kind == "load")


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
    record).  Every streaming core issues on every cycle of the window.
    Tracing restricts streaming to single-core calls so records interleave
    in the reference's (cycle, core) order.  Returns ``(window, issues,
    stalls, drained)`` for a committed window, else ``None`` with every lazy
    core synced back into its warps.
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
            n = plans[0].n
            rounds = min(plan.rounds for plan in plans)
            if idle and min_idle_hint < cycle + rounds * n:
                # Shrink the window until the stalled cores provably sleep
                # through it (idle hints lie past ``cycle``: never negative).
                rounds = int((min_idle_hint - cycle) // n)
            window = rounds * n
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
    return window, window * len(plans), window * idle, drained


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
