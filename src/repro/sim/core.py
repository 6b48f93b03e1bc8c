"""SIMT core model: functional execution + cycle-level issue timing.

Each core is an in-order, single-issue machine holding ``warps_per_core``
warps.  Every cycle the warp scheduler (round-robin, oldest-first among ready
warps) issues at most one instruction.  An instruction can issue when

* the warp is runnable (not halted, not parked at a barrier),
* its source and destination registers have no pending writes (scoreboard),
* the functional unit it needs is not busy (only the SFU and LSU have
  initiation intervals greater than one), and
* the warp's minimum issue spacing has elapsed.

Issued instructions execute functionally right away (registers and memory are
updated with real values) and their latency is charged through the scoreboard,
so dependent instructions wait the correct number of cycles.  A memory
instruction coalesces its lanes into one line list and walks it in one
:meth:`~repro.sim.memory.hierarchy.MemoryHierarchy.load` / ``store`` call --
the walk the fast and batch engines take too.  The hierarchy keeps the
cache/DRAM counters; :class:`~repro.sim.gpu.Gpu` drains them into
:class:`PerfCounters` when the call ends.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.isa.instruction import Instruction
from repro.isa.latencies import FunctionalUnit, timing_for
from repro.isa.opcodes import OPS, OpClass, Opcode, SimulationError
from repro.isa.program import Program
from repro.sim.config import ArchConfig
from repro.sim.memory.coalescer import coalesce
from repro.sim.memory.hierarchy import MemoryHierarchy
from repro.sim.memory.mainmem import MainMemory
from repro.sim.scheduler import make_scheduler
from repro.sim.stats import PerfCounters
from repro.sim.warp import Warp, popcount
from repro.telemetry.recorder import RECORDER

#: Sentinel returned by :meth:`SimtCore.next_event_hint` when the core is drained.
NEVER = float("inf")

#: Which :class:`PerfCounters` attribute each instruction class increments
#: (``None`` for pseudo-ops, which only count as warp/lane instructions).
#: Shared by the reference core below and the fast engine so the two can
#: never drift apart in how they classify the instruction mix.
CLASS_COUNTERS: Dict[OpClass, Optional[str]] = {
    OpClass.INT_ALU: "alu_instructions",
    OpClass.INT_MUL: "alu_instructions",
    OpClass.FLOAT: "fpu_instructions",
    OpClass.SFU: "sfu_instructions",
    OpClass.MEMORY: "memory_instructions",
    OpClass.CONTROL: "control_instructions",
    OpClass.SIMT: "control_instructions",
    OpClass.PSEUDO: None,
}


# -- register-to-register opcodes: an OPS row's ``lane`` run per active lane ---
def _exec_immediate(fn: Callable) -> Callable:
    def run(warp: Warp, instr: Instruction, cycle: int):
        value = fn(instr.imm)
        dst = instr.dst
        for lane in warp.active_lanes():
            warp.regs[lane][dst] = value
        warp.pc += 1
    return run


def _exec_unary(fn: Callable) -> Callable:
    def run(warp: Warp, instr: Instruction, cycle: int):
        (s0,) = instr.srcs
        dst = instr.dst
        for lane in warp.active_lanes():
            lane_regs = warp.regs[lane]
            lane_regs[dst] = fn(lane_regs[s0])
        warp.pc += 1
    return run


def _exec_binary(fn: Callable) -> Callable:
    def run(warp: Warp, instr: Instruction, cycle: int):
        s0, s1 = instr.srcs
        dst = instr.dst
        regs = warp.regs
        for lane in warp.active_lanes():
            lane_regs = regs[lane]
            lane_regs[dst] = fn(lane_regs[s0], lane_regs[s1])
        warp.pc += 1
    return run


def _exec_lanes(fn: Callable) -> Callable:
    def run(warp: Warp, instr: Instruction, cycle: int):
        srcs, dst = instr.srcs, instr.dst
        for lane in warp.active_lanes():
            lane_regs = warp.regs[lane]
            lane_regs[dst] = fn(*[lane_regs[s] for s in srcs])
        warp.pc += 1
    return run


#: Handler builder per source count; any other arity takes :func:`_exec_lanes`.
_LANE_HANDLERS = {0: _exec_immediate, 1: _exec_unary, 2: _exec_binary}


class SimtCore:
    """One SIMT core executing a single program on its warps."""

    #: Engine this core class implements (the fast engine overrides it).
    engine_name = "reference"

    def __init__(self, core_id: int, config: ArchConfig, program: Program,
                 hierarchy: MemoryHierarchy, memory: MainMemory,
                 counters: PerfCounters, tracer=None):
        self.core_id = core_id
        self.config = config
        self.program = program
        self.hierarchy = hierarchy
        self.memory = memory
        self.counters = counters
        self.tracer = tracer
        self.warps: List[Warp] = []
        self._scheduler = make_scheduler(config.warp_scheduler, config.warps_per_core)
        self._fu_busy_until: Dict[FunctionalUnit, int] = {unit: 0 for unit in FunctionalUnit}
        self._barrier_waiting = 0
        self._next_event_hint: float = 0
        self._last_line_count = 1    # lines of the last memory access
        self._exec_table: Dict[Opcode, Callable] = self._build_exec_table()

    # ------------------------------------------------------------------ setup
    def add_warp(self, warp: Warp) -> None:
        """Attach a warp (created by the launcher) to this core."""
        self.warps.append(warp)

    @property
    def busy(self) -> bool:
        """True while at least one warp has not halted."""
        return any(not w.halted for w in self.warps)

    @property
    def next_event_hint(self) -> float:
        """Earliest cycle at which an issue may become possible (valid after a failed issue)."""
        return self._next_event_hint

    # ------------------------------------------------------------------ issue
    def try_issue(self, cycle: int) -> bool:
        """Attempt to issue one instruction at ``cycle``.

        Returns True on issue.  On failure, :attr:`next_event_hint` is updated
        with the earliest cycle at which retrying can succeed.
        """
        num_warps = len(self.warps)
        if num_warps == 0:
            self._next_event_hint = NEVER
            return False
        earliest = NEVER
        for index in self._scheduler.priority_order():
            if index >= num_warps:
                continue
            warp = self.warps[index]
            if warp.halted or warp.at_barrier:
                continue
            ready_at = self._warp_ready_cycle(warp)
            if ready_at <= cycle:
                self._issue(warp, cycle)
                self._scheduler.issued(index)
                return True
            if ready_at < earliest:
                earliest = ready_at
        self._next_event_hint = earliest
        return False

    def _warp_ready_cycle(self, warp: Warp) -> float:
        """Cycle at which ``warp``'s next instruction could issue."""
        if warp.pc >= len(self.program):
            raise SimulationError(
                f"core {self.core_id} warp {warp.warp_id}: PC {warp.pc} ran off the program"
            )
        instr = self.program[warp.pc]
        ready = warp.next_issue_cycle
        regs = instr.srcs if instr.dst is None else instr.srcs + (instr.dst,)
        reg_ready = warp.registers_ready_cycle(regs)
        if reg_ready > ready:
            ready = reg_ready
        timing = timing_for(instr.opcode, self.config.timing_overrides)
        fu_free = self._fu_busy_until[timing.unit]
        if fu_free > ready:
            ready = fu_free
        return ready

    def _issue(self, warp: Warp, cycle: int) -> None:
        instr = self.program[warp.pc]
        issue_pc = warp.pc
        timing = timing_for(instr.opcode, self.config.timing_overrides)

        active = popcount(warp.active_mask)
        self._count_instruction(instr, active)
        if self.tracer is not None:
            self.tracer.record(cycle=cycle, core=self.core_id, warp=warp.warp_id,
                               pc=issue_pc, opcode=instr.opcode, mask=warp.active_mask,
                               section=instr.section)

        handler = self._exec_table[instr.opcode]
        latency = handler(warp, instr, cycle)
        if latency is None:
            latency = timing.latency if timing.latency is not None else 1

        if instr.dst is not None:
            warp.scoreboard[instr.dst] = cycle + latency
        busy = timing.initiation_interval
        if instr.op_class is OpClass.MEMORY:
            # the LSU stays busy one cycle per coalesced line request
            busy = max(busy, self._last_line_count)
        if busy > 1:
            self._fu_busy_until[timing.unit] = cycle + busy
        warp.next_issue_cycle = cycle + 1
        warp.retire_completed_writes(cycle)

    def _count_instruction(self, instr: Instruction, active_lanes: int) -> None:
        c = self.counters
        c.warp_instructions += 1
        c.lane_instructions += active_lanes
        bucket = CLASS_COUNTERS[instr.op_class]
        if bucket is not None:
            setattr(c, bucket, getattr(c, bucket) + 1)

    # ------------------------------------------------------------------ functional execution
    def _build_exec_table(self) -> Dict[Opcode, Callable]:
        O = Opcode
        table: Dict[Opcode, Callable] = {
            O.CSRR: self._exec_csrr,
            O.LOAD: self._exec_load,
            O.STORE: self._exec_store,
            O.JMP: self._exec_jmp,
            O.SPLIT: self._exec_split,
            O.JOIN: self._exec_join,
            O.LOOP_BEGIN: self._exec_loop_begin,
            O.LOOP_END: self._exec_loop_end,
            O.BAR: self._exec_bar,
            O.TMC: self._exec_tmc,
            O.NOP: self._exec_nop,
            O.HALT: self._exec_halt,
        }
        for opcode, spec in OPS.items():
            if spec.lane is not None:
                table[opcode] = _LANE_HANDLERS.get(spec.srcs, _exec_lanes)(spec.lane)
        return table

    def _exec_csrr(self, warp: Warp, instr: Instruction, cycle: int):
        csr = int(instr.imm)
        dst = instr.dst
        for lane in warp.active_lanes():
            warp.regs[lane][dst] = float(warp.csr.read(csr, lane))
        warp.pc += 1
        return None

    # -- memory ---------------------------------------------------------------
    def _exec_load(self, warp: Warp, instr: Instruction, cycle: int):
        (addr_reg,) = instr.srcs
        offset = int(instr.imm or 0)
        dst = instr.dst
        lanes = warp.active_lanes()
        addresses = []
        for lane in lanes:
            address = int(warp.regs[lane][addr_reg]) + offset
            addresses.append(address)
            warp.regs[lane][dst] = self.memory.read(address)
        lines = coalesce(addresses, self.hierarchy.line_words)
        self._last_line_count = len(lines)
        # The walk timer is an accumulate-only counter (not a histogram) kept
        # behind one enabled check: cheap enough for the per-instruction path,
        # and a pure wall-clock observer of the unchanged cycle arithmetic.
        walk_started = time.perf_counter() if RECORDER.enabled else 0.0
        latency = self.hierarchy.load(self.core_id, lines, cycle)
        if RECORDER.enabled:
            RECORDER.count("engine.memory.walk_seconds",
                           time.perf_counter() - walk_started)
            RECORDER.count("engine.memory.walks")
        self.counters.loads += 1
        self.counters.load_lines += len(lines)
        warp.pc += 1
        return latency

    def _exec_store(self, warp: Warp, instr: Instruction, cycle: int):
        value_reg, addr_reg = instr.srcs
        offset = int(instr.imm or 0)
        lanes = warp.active_lanes()
        addresses = []
        for lane in lanes:
            address = int(warp.regs[lane][addr_reg]) + offset
            addresses.append(address)
            self.memory.write(address, warp.regs[lane][value_reg])
        lines = coalesce(addresses, self.hierarchy.line_words)
        self._last_line_count = len(lines)
        walk_started = time.perf_counter() if RECORDER.enabled else 0.0
        self.hierarchy.store(self.core_id, lines, cycle)
        if RECORDER.enabled:
            RECORDER.count("engine.memory.walk_seconds",
                           time.perf_counter() - walk_started)
            RECORDER.count("engine.memory.walks")
        self.counters.stores += 1
        self.counters.store_lines += len(lines)
        warp.pc += 1
        return 1

    # -- control flow ----------------------------------------------------------
    def _exec_jmp(self, warp: Warp, instr: Instruction, cycle: int):
        warp.pc = instr.target
        return None

    def _exec_split(self, warp: Warp, instr: Instruction, cycle: int):
        (cond_reg,) = instr.srcs
        taken = 0
        for lane in warp.active_lanes():
            if warp.regs[lane][cond_reg] != 0.0:
                taken |= 1 << lane
        full = warp.active_mask
        not_taken = full & ~taken
        else_pc, join_pc = instr.target, instr.target2
        if taken and not_taken:
            warp.simt_stack.append(("else", not_taken, full, else_pc, join_pc))
            warp.active_mask = taken
            warp.pc += 1
            self.counters.divergent_branches += 1
        elif taken:
            warp.simt_stack.append(("join", full, join_pc))
            warp.pc += 1
        else:
            warp.simt_stack.append(("join", full, join_pc))
            warp.pc = else_pc
        return None

    def _exec_join(self, warp: Warp, instr: Instruction, cycle: int):
        if not warp.simt_stack:
            raise SimulationError(
                f"core {self.core_id} warp {warp.warp_id}: JOIN with empty SIMT stack at pc {warp.pc}"
            )
        entry = warp.simt_stack.pop()
        if entry[0] == "else":
            _, not_taken, full, else_pc, join_pc = entry
            warp.simt_stack.append(("join", full, join_pc))
            warp.active_mask = not_taken
            warp.pc = else_pc
        elif entry[0] == "join":
            _, mask, join_pc = entry
            warp.active_mask = mask
            warp.pc = join_pc
        else:
            raise SimulationError(
                f"core {self.core_id} warp {warp.warp_id}: JOIN found a {entry[0]!r} entry"
            )
        return None

    def _exec_loop_begin(self, warp: Warp, instr: Instruction, cycle: int):
        warp.simt_stack.append(("loop", warp.active_mask))
        warp.pc += 1
        return None

    def _exec_loop_end(self, warp: Warp, instr: Instruction, cycle: int):
        (cond_reg,) = instr.srcs
        alive = 0
        for lane in warp.active_lanes():
            if warp.regs[lane][cond_reg] != 0.0:
                alive |= 1 << lane
        if alive:
            if alive != warp.active_mask:
                self.counters.divergent_branches += 1
            warp.active_mask = alive
            warp.pc = instr.target
        else:
            if not warp.simt_stack or warp.simt_stack[-1][0] != "loop":
                raise SimulationError(
                    f"core {self.core_id} warp {warp.warp_id}: LOOP_END without LOOP_BEGIN"
                )
            _, mask = warp.simt_stack.pop()
            warp.active_mask = mask
            warp.pc += 1
        return None

    # -- SIMT / system -----------------------------------------------------------
    def _exec_bar(self, warp: Warp, instr: Instruction, cycle: int):
        warp.at_barrier = True
        warp.pc += 1
        self.counters.barriers += 1
        self._barrier_waiting += 1
        participants = sum(1 for w in self.warps if not w.halted)
        if self._barrier_waiting >= participants:
            self._release_barrier(cycle)
        return None

    def _release_barrier(self, cycle: int) -> None:
        for w in self.warps:
            if w.at_barrier:
                w.at_barrier = False
                w.next_issue_cycle = cycle + self.config.barrier_latency
        self._barrier_waiting = 0

    def _exec_tmc(self, warp: Warp, instr: Instruction, cycle: int):
        keep = int(instr.imm)
        if keep <= 0:
            warp.halted = True
            self._check_barrier_after_halt(cycle)
            return None
        warp.active_mask = (1 << min(keep, warp.lane_count)) - 1
        warp.pc += 1
        return None

    def _exec_nop(self, warp: Warp, instr: Instruction, cycle: int):
        warp.pc += 1
        return None

    def _exec_halt(self, warp: Warp, instr: Instruction, cycle: int):
        warp.halted = True
        self._check_barrier_after_halt(cycle)
        return None

    def _check_barrier_after_halt(self, cycle: int) -> None:
        """A halting warp may be the last participant other warps wait for."""
        if self._barrier_waiting == 0:
            return
        participants = sum(1 for w in self.warps if not w.halted)
        if participants and self._barrier_waiting >= participants:
            self._release_barrier(cycle)
