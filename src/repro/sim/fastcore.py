"""The ``fast`` simulation engine: pre-decoded issue + vectorized lanes.

:class:`FastSimtCore` is a drop-in replacement for
:class:`~repro.sim.core.SimtCore` that produces **bit-identical** results
(cycles, every performance counter, every memory value) while cutting the
per-instruction Python overhead:

* **Pre-decoded programs.**  Every PC is decoded once per *program* (shared
  across cores and kernel calls, see :func:`decode_program`) into a
  :class:`_Decoded` record holding a compiled handler closure, the scoreboard
  registers to check, the functional-unit index and the timing -- the
  per-issue path never touches enum hashing, ``timing_for`` or tuple
  concatenation again.
* **Two register representations, one decode.**  A warp launched with at
  most :data:`LIST_LANES` active lanes is a :class:`~repro.sim.warp.ListWarp`
  of Python float lists and runs every opcode's
  :data:`~repro.isa.opcodes.OPS` ``lane`` form per lane, its memory
  arithmetic in Python ints: no numpy call, whose fixed per-call cost is
  several times the arithmetic at that width.  Every other warp runs numpy
  on register-row views of exactly the active width while the mask is a
  contiguous lane prefix (:meth:`~repro.sim.warp.FastWarp.refresh`),
  through a lane index array only under true divergence; an opcode is
  vectorized exactly when its ``OPS`` row has a ``rows`` form (bit-identical
  to ``lane`` by contract).  Each PC decodes into both closure families; a
  warp gets its family when attached (:meth:`FastSimtCore.add_warp`).
* **Cached readiness.**  A warp that cannot issue caches a lower bound on its
  next issue cycle (:attr:`~repro.sim.warp.FastWarp._ready_bound`) and costs
  one comparison per attempt until the clock reaches it.  The HALT, TMC and
  BAR handlers park their own warp (bound ``NEVER``) when it ends up halted
  or at a barrier, so a fresh decode never re-tests either flag.
* **Batched statistics.**  Instruction-mix counters accumulate per PC and are
  folded into :class:`~repro.sim.stats.PerfCounters` once per kernel call
  (:meth:`FastSimtCore.flush_instruction_counters`), yielding identical totals
  to the reference engine's per-issue increments.

The event-skipping loop itself is :func:`run_fast` at the bottom of this
module, the one issue loop of both production engines (the ``batch`` engine
plugs its streaming windows into it): it caches each core's
``next_event_hint`` so stalled cores are not re-scanned every cycle, and
inlines the per-core issue attempt so no Python call frame is paid per
instruction.  A cached hint stays valid until the core issues again because
a core's readiness depends only on its own state (scoreboard, functional
units, barriers); other cores influence only the *latency* charged through
the shared memory system, never *whether* this core can issue.

Equivalence with the reference engine is enforced by
``tests/test_engine_differential.py`` and the golden-counter fixtures.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.isa.instruction import Instruction
from repro.isa.latencies import FunctionalUnit, timing_for
from repro.isa.opcodes import OPS, OpClass, Opcode, SimulationError, checked_fdiv
from repro.isa.program import Program
from repro.isa.registers import NUM_ARG_SLOTS, Csr
from repro.sim.config import ArchConfig
from repro.sim.core import CLASS_COUNTERS, NEVER, SimtCore
from repro.sim.memory.hierarchy import MemoryHierarchy
from repro.sim.memory.mainmem import MainMemory
from repro.sim.scheduler import RoundRobinScheduler
from repro.sim.stats import PerfCounters
from repro.telemetry.recorder import RECORDER

_UNIT_INDEX = {unit: index for index, unit in enumerate(FunctionalUnit)}

#: ``_d_cache`` of a parked (halted or barrier) warp; its bound is ``NEVER``.
_PARKED = (None, None, (), 1, 1, 0, False, False)

#: Widest launch whose warp keeps its registers as Python float lists.
LIST_LANES = 2


#: Warp-uniform CSR numbers -> the :class:`~repro.isa.registers.CsrFile`
#: attribute holding the value, resolved at decode time so the per-issue path
#: skips :meth:`CsrFile.read`'s number dispatch.
_UNIFORM_CSR_ATTRS = {
    Csr.WARP_ID: "warp_id",
    Csr.CORE_ID: "core_id",
    Csr.NUM_THREADS: "num_threads",
    Csr.NUM_WARPS: "num_warps",
    Csr.NUM_CORES: "num_cores",
    Csr.LOCAL_SIZE: "local_size",
    Csr.GLOBAL_SIZE: "global_size",
    Csr.NUM_GROUPS: "num_groups",
    Csr.CALL_INDEX: "call_index",
}

#: Control opcodes that never touch the register file; the reference handlers
#: are reused directly (called unbound with the core as ``self``).
_BASE_HANDLERS = {
    Opcode.JMP: SimtCore._exec_jmp,
    Opcode.JOIN: SimtCore._exec_join,
    Opcode.LOOP_BEGIN: SimtCore._exec_loop_begin,
    Opcode.NOP: SimtCore._exec_nop,
}

#: Opcodes that can park their own warp (halt it or leave it at a barrier),
#: and whether issuing one makes the GPU loop re-check if the core drained.
_PARKING = {
    Opcode.TMC: (SimtCore._exec_tmc, True),
    Opcode.HALT: (SimtCore._exec_halt, True),
    Opcode.BAR: (SimtCore._exec_bar, False),
}


class _Decoded:
    """Everything the issue path needs about one PC, computed once per program.

    ``tup`` packs the hot fields into one tuple so the issue loop performs a
    single slot load plus an unpack instead of seven attribute reads:
    ``(run, dst, check_regs, default_latency, initiation_interval,
    unit_index, fu_check, is_mem)``.  ``list_tup`` is the same tuple with
    the list-warp closure ``list_run`` in place of ``run``.
    """

    __slots__ = ("instr", "run", "list_run", "dst", "check_regs",
                 "default_latency", "initiation_interval", "unit_index",
                 "fu_check", "is_mem", "bucket", "tup", "list_tup")


class DecodedProgram(list):
    """A program's :class:`_Decoded` per PC, plus each closure family's hot
    tuples per PC: ``tups`` for numpy warps, ``list_tups`` for list warps."""

    __slots__ = ("tups", "list_tups")


# ----------------------------------------------------------------------
# decode: program -> list of _Decoded (shared by every core and call)
# ----------------------------------------------------------------------
#: (program id, line words, timing overrides) -> (program, its decode).  The
#: stored program reference pins the id against reuse.
_DECODE_MEMO: Dict[tuple, tuple] = {}


def decode_program(program: Program, config: ArchConfig) -> DecodedProgram:
    """Decode ``program`` for ``config``, once per process.

    The result is immutable and independent of the core and of the machine
    shape: handlers receive the core and the warp at run time, and of the
    whole ``config`` only ``timing_overrides`` (latencies, intervals, unit
    binding) and ``l1_line_words`` (the memory handlers' line arithmetic) are
    baked in.  So one decode serves every core, call, launch and ``Device``
    that runs the same :class:`Program` object -- and
    :func:`~repro.kernels.wrapper.build_workgroup_program` hands out one per
    kernel for the life of the process.
    """
    return per_process(_DECODE_MEMO, program, config, _decode_all)


def per_process(memo: Dict[tuple, tuple], program: Program,
                config: ArchConfig, build: Callable):
    """``build(program, config)``, memoised in ``memo`` for the process.

    Keyed by program identity and the only parts of ``config`` a decode
    bakes in (see :func:`decode_program`), so anything built from the decode
    and the program alone can share the key.
    """
    key = (id(program), config.l1_line_words,
           frozenset(config.timing_overrides.items()))
    cached = memo.get(key)
    if cached is not None and cached[0] is program:
        return cached[1]
    built = build(program, config)
    if len(memo) >= 64:      # one-off programs (fuzzing) must not pile up
        memo.clear()
    memo[key] = (program, built)
    return built


def _decode_all(program: Program, config: ArchConfig) -> DecodedProgram:
    decoded = DecodedProgram(_decode_one(program[pc], config)
                             for pc in range(len(program)))
    # A functional unit only ever *blocks* an issue if some instruction of
    # this program can mark it busy (initiation interval > 1, or the
    # per-line LSU occupancy of memory ops).  Instructions bound for any
    # other unit skip the FU-availability read entirely.
    busyable = {d.unit_index for d in decoded
                if d.is_mem or d.initiation_interval > 1}
    for d in decoded:
        d.fu_check = d.unit_index in busyable
        shared = (d.dst, d.check_regs, d.default_latency,
                  d.initiation_interval, d.unit_index, d.fu_check, d.is_mem)
        d.tup = (d.run,) + shared
        d.list_tup = (d.list_run,) + shared
    decoded.tups = [d.tup for d in decoded]
    decoded.list_tups = [d.list_tup for d in decoded]
    return decoded


def _decode_one(instr: Instruction, config: ArchConfig) -> _Decoded:
    timing = timing_for(instr.opcode, config.timing_overrides)
    d = _Decoded()
    d.instr = instr
    d.dst = instr.dst
    d.check_regs = instr.srcs if instr.dst is None else instr.srcs + (instr.dst,)
    d.default_latency = timing.latency if timing.latency is not None else 1
    d.initiation_interval = timing.initiation_interval
    d.unit_index = _UNIT_INDEX[timing.unit]
    cls = OPS[instr.opcode].cls
    d.is_mem = cls is OpClass.MEMORY
    d.bucket = CLASS_COUNTERS[cls]
    d.run = _compile(instr, config)
    d.list_run = _compile(instr, config, lists=True)
    return d


def _compile(instr: Instruction, config: ArchConfig, lists: bool = False) -> Callable:
    """The ``run(core, warp, cycle)`` closure of ``instr`` for numpy or list warps."""
    O = Opcode
    opcode = instr.opcode
    spec = OPS[opcode]
    if spec.lane is not None:
        if not spec.srcs:
            dst, value = instr.dst, spec.lane(instr.imm)
            fill = _fill_list if lists else _fill_lanes
            return lambda core, warp, cycle: fill(warp, dst, value)
        if spec.lane is checked_fdiv and not lists:
            return _c_fdiv(instr)
        if lists or spec.rows is None:
            return _c_lanes(instr, spec.lane)
        if spec.srcs == 3:
            return _c_fma(instr)
        return (_c_unary if spec.srcs == 1 else _c_binary)(instr, spec.rows)
    if opcode is O.CSRR:
        return _c_csrr(instr, lists)
    if opcode is O.LOAD:
        return (_c_list_load if lists else _c_load)(instr, config)
    if opcode is O.STORE:
        return (_c_list_store if lists else _c_store)(instr, config)
    if opcode in (O.SPLIT, O.LOOP_END):
        build = _c_split if opcode is O.SPLIT else _c_loop_end
        return build(instr, _list_nonzero_mask if lists else _nonzero_mask)
    if opcode in _PARKING:
        base, drains = _PARKING[opcode]

        def run_park(core, warp, cycle):
            base(core, warp, instr, cycle)
            if drains:
                core._drain_check = True
            if warp.halted or warp.at_barrier:
                warp._d_cache, warp._ready_bound = _PARKED, NEVER
        return run_park
    base = _BASE_HANDLERS[opcode]

    def run_base(core, warp, cycle, _instr=instr, _base=base):
        return _base(core, warp, _instr, cycle)
    return run_base


# ----------------------------------------------------------------------
# compiled handlers (instruction constants baked in at decode time)
#
# The per-lane closures over ``rows[reg][lane]`` run every opcode of a list
# warp and the opcodes without a ``rows`` form on a numpy warp.
#
# Every numpy handler has two paths.  ``warp.vrows`` is the register file as
# row views of exactly the active width whenever the mask is a contiguous
# lane prefix (a partial warp is just a narrower warp; all lanes active is
# the widest case), and the handler runs whole-array numpy on them.  Only
# true divergence (``vrows is None``) indexes full rows with the lane index
# array ``warp.sel``.
# ----------------------------------------------------------------------
def _c_lanes(instr: Instruction, fn: Callable) -> Callable:
    """``dst <- fn(srcs)`` lane by lane (0 sources: :func:`_fill_list`)."""
    dst = instr.dst
    srcs = instr.srcs
    if len(srcs) == 1:
        (s0,) = srcs

        def run(core, warp, cycle):
            rows, mask = warp.rows, warp.active_mask
            a, d = rows[s0], rows[dst]
            if mask == 1:
                d[0] = fn(a[0])
            elif mask == 3:
                d[0], d[1] = fn(a[0]), fn(a[1])
            else:
                for lane in warp.active_lanes():
                    d[lane] = fn(a[lane])
            warp.pc += 1
        return run
    if len(srcs) == 2:
        s0, s1 = srcs

        def run(core, warp, cycle):
            rows, mask = warp.rows, warp.active_mask
            a, b, d = rows[s0], rows[s1], rows[dst]
            if mask == 1:
                d[0] = fn(a[0], b[0])
            elif mask == 3:
                d[0], d[1] = fn(a[0], b[0]), fn(a[1], b[1])
            else:
                for lane in warp.active_lanes():
                    d[lane] = fn(a[lane], b[lane])
            warp.pc += 1
        return run
    s0, s1, s2 = srcs

    def run(core, warp, cycle):
        rows, mask = warp.rows, warp.active_mask
        a, b, c, d = rows[s0], rows[s1], rows[s2], rows[dst]
        if mask == 1:
            d[0] = fn(a[0], b[0], c[0])
        elif mask == 3:
            d[0], d[1] = fn(a[0], b[0], c[0]), fn(a[1], b[1], c[1])
        else:
            for lane in warp.active_lanes():
                d[lane] = fn(a[lane], b[lane], c[lane])
        warp.pc += 1
    return run


def _fill_list(warp, dst: int, value: float) -> None:
    """``dst <- value`` on a list warp's active lanes (LI, uniform CSRs)."""
    row = warp.rows[dst]
    mask = warp.active_mask
    if mask == 1:
        row[0] = value
    elif mask == 3:
        row[0] = row[1] = value
    else:
        for lane in warp.active_lanes():
            row[lane] = value
    warp.pc += 1


def _c_binary(instr: Instruction, np_fn: Callable) -> Callable:
    s0, s1 = instr.srcs
    dst = instr.dst
    if isinstance(np_fn, np.ufunc):
        # True ufuncs write straight into the destination view, saving a
        # temporary and a copy.
        def run(core, warp, cycle):
            vrows = warp.vrows if warp.active_mask == warp._view_mask else warp.refresh()
            if vrows is not None:
                np_fn(vrows[s0], vrows[s1], out=vrows[dst])
            else:
                rows, sel = warp.rows, warp.sel
                rows[dst][sel] = np_fn(rows[s0][sel], rows[s1][sel])
            warp.pc += 1
        return run

    def run(core, warp, cycle):
        vrows = warp.vrows if warp.active_mask == warp._view_mask else warp.refresh()
        if vrows is not None:
            vrows[dst][:] = np_fn(vrows[s0], vrows[s1])
        else:
            rows, sel = warp.rows, warp.sel
            rows[dst][sel] = np_fn(rows[s0][sel], rows[s1][sel])
        warp.pc += 1
    return run


def _c_fdiv(instr: Instruction) -> Callable:
    """``FDIV``: raise if any active divisor is zero, then one ``np.divide``."""
    s0, s1 = instr.srcs
    dst = instr.dst

    def run(core, warp, cycle):
        vrows = warp.vrows if warp.active_mask == warp._view_mask else warp.refresh()
        if vrows is not None:
            a, b = vrows[s0], vrows[s1]
        else:
            rows, sel = warp.rows, warp.sel
            a, b = rows[s0][sel], rows[s1][sel]
        if np.any(b == 0.0):
            raise SimulationError("floating-point division by zero")
        if vrows is not None:
            np.divide(a, b, out=vrows[dst])
        else:
            rows[dst][sel] = a / b
        warp.pc += 1
    return run


def _c_unary(instr: Instruction, np_fn: Callable) -> Callable:
    (s0,) = instr.srcs
    dst = instr.dst
    if isinstance(np_fn, np.ufunc):
        def run(core, warp, cycle):
            vrows = warp.vrows if warp.active_mask == warp._view_mask else warp.refresh()
            if vrows is not None:
                np_fn(vrows[s0], out=vrows[dst])
            else:
                rows, sel = warp.rows, warp.sel
                rows[dst][sel] = np_fn(rows[s0][sel])
            warp.pc += 1
        return run

    def run(core, warp, cycle):
        vrows = warp.vrows if warp.active_mask == warp._view_mask else warp.refresh()
        if vrows is not None:
            vrows[dst][:] = np_fn(vrows[s0])
        else:
            rows, sel = warp.rows, warp.sel
            rows[dst][sel] = np_fn(rows[s0][sel])
        warp.pc += 1
    return run


def _c_fma(instr: Instruction) -> Callable:
    """``FMA``'s row form, the product staged in the warp's scratch row so
    ``dst`` may alias a source without a temporary."""
    s0, s1, s2 = instr.srcs
    dst = instr.dst

    def run(core, warp, cycle):
        vrows = warp.vrows if warp.active_mask == warp._view_mask else warp.refresh()
        if vrows is not None:
            scratch = warp.vscratch
            np.multiply(vrows[s0], vrows[s1], out=scratch)
            np.add(scratch, vrows[s2], out=vrows[dst])
        else:
            rows, sel = warp.rows, warp.sel
            rows[dst][sel] = rows[s0][sel] * rows[s1][sel] + rows[s2][sel]
        warp.pc += 1
    return run


def _fill_lanes(warp, dst: int, value: float) -> None:
    """``dst <- value`` on a numpy warp's active lanes (LI, uniform CSRs)."""
    vrows = warp.vrows if warp.active_mask == warp._view_mask else warp.refresh()
    if vrows is not None:
        vrows[dst].fill(value)
    else:
        warp.rows[dst][warp.sel] = value
    warp.pc += 1


def _c_csrr(instr: Instruction, lists: bool) -> Callable:
    """CSR reads, specialised per CSR number at decode time.

    Only ``THREAD_ID``, ``WORKGROUP_ID`` and ``LOCAL_COUNT`` vary per lane
    (see :class:`repro.isa.registers.CsrFile`); every other CSR is uniform
    across the warp and needs a single scalar read instead of one per lane.
    """
    csr_number = int(instr.imm)
    dst = instr.dst
    per_lane = csr_number in (Csr.THREAD_ID, Csr.WORKGROUP_ID, Csr.LOCAL_COUNT)
    if lists and per_lane:
        def run(core, warp, cycle):
            row, read = warp.rows[dst], warp.csr.read
            for lane in warp.active_lanes():
                row[lane] = float(read(csr_number, lane))
            warp.pc += 1
        return run
    if per_lane:
        attr = {Csr.WORKGROUP_ID: "workgroup_ids",
                Csr.LOCAL_COUNT: "local_counts"}.get(csr_number)

        def run(core, warp, cycle):
            if attr is None:
                row = warp.lane_ids
            else:
                # Zero-padded to the warp width in the warp's own scratch
                # row: no allocation per issue and nothing kept per warp.
                values = getattr(warp.csr, attr)
                row = warp.scratch
                row[:len(values)] = values
                row[len(values):] = 0.0
            vrows = warp.vrows if warp.active_mask == warp._view_mask else warp.refresh()
            if vrows is not None:
                vrows[dst][:] = row[:warp.width]
            else:
                warp.rows[dst][warp.sel] = row[warp.sel]
            warp.pc += 1
        return run

    fill = _fill_list if lists else _fill_lanes
    attr = _UNIFORM_CSR_ATTRS.get(csr_number)
    if attr is not None:
        return lambda core, warp, cycle: fill(
            warp, dst, float(getattr(warp.csr, attr)))
    if Csr.ARG_BASE <= csr_number < Csr.ARG_BASE + NUM_ARG_SLOTS:
        slot = csr_number - Csr.ARG_BASE
        return lambda core, warp, cycle: fill(
            warp, dst, float(warp.csr.args.get(slot, 0.0)))
    # Unknown CSR: read() raises exactly like the reference's per-lane read
    # would.
    return lambda core, warp, cycle: fill(
        warp, dst, warp.csr.read(csr_number, 0))


# -- memory ---------------------------------------------------------------
def _line_math(line_words: int) -> Callable:
    """``addresses -> per-lane line addresses``; a shift when the line size is
    a power of two (int64 ``>>`` floors exactly like ``//``)."""
    if line_words & (line_words - 1) == 0:
        shift = line_words.bit_length() - 1
        return lambda addresses: addresses >> shift
    return lambda addresses: addresses // line_words


def _lines_in_bounds(lines, full_lines: int) -> bool:
    """True when every line index lies in ``[0, full_lines)``.

    A line inside that range contains only valid word addresses, so the
    per-address bounds check can be skipped; anything else falls back to the
    exact (raising) check.  ``lines`` is any iterable of line indices (the
    handlers pass the dedup dict's keys).
    """
    if len(lines) == 1:
        return 0 <= next(iter(lines)) < full_lines
    return min(lines) >= 0 and max(lines) < full_lines


def _list_access(warp, reg: int, offset: int, line_words: int, full_lines: int):
    """``(lanes, first address, last address, lines)`` of a list warp's access
    in Python ints, or ``None`` for the checked numpy path: more than two
    active lanes (after a TMC), a NaN or infinite address, or a line outside
    ``[0, full_lines)`` -- so every error comes from the same code as a numpy
    warp's.  (A finite value at or beyond 2**63 fails the line bound.)
    """
    mask = warp.active_mask
    lanes = (0,) if mask == 1 else (0, 1) if mask == 3 else warp.active_lanes()
    if len(lanes) > 2:
        return None
    row = warp.rows[reg]
    try:
        first = int(row[lanes[0]]) + offset
        last = int(row[lanes[-1]]) + offset
    except (ValueError, OverflowError):
        return None
    line0, line1 = first // line_words, last // line_words
    if not (0 <= line0 < full_lines and 0 <= line1 < full_lines):
        return None
    return lanes, first, last, ((line0,) if line0 == line1 else (line0, line1))


def _lane_addresses(warp, reg: int, offset: int, to_lines: Callable):
    """``(lanes, int64 addresses, lines)`` of a list warp's access, cast and
    deduplicated exactly as the numpy path does."""
    row, lanes = warp.rows[reg], warp.active_lanes()
    addresses = np.array([row[lane] for lane in lanes]).astype(np.int64)
    if offset:
        addresses += offset
    return lanes, addresses, dict.fromkeys(to_lines(addresses).tolist())


def _walk(core, lines, cycle: int, load: bool) -> int:
    """Walk and count one load or store of the coalesced ``lines``; its
    latency (1 for a store: write-through never stalls the warp)."""
    num_lines = len(lines)
    core._last_line_count = num_lines
    walk_started = _perf_counter() if RECORDER.enabled else 0.0
    counters = core.counters
    if load:
        latency = core.hierarchy.load(core.core_id, lines, cycle)
        counters.loads += 1
        counters.load_lines += num_lines
    else:
        core.hierarchy.store(core.core_id, lines, cycle)
        latency = 1
        counters.stores += 1
        counters.store_lines += num_lines
    if RECORDER.enabled:
        RECORDER.count("engine.memory.walk_seconds", _perf_counter() - walk_started)
        RECORDER.count("engine.memory.walks")
    return latency


def _c_load(instr: Instruction, config: ArchConfig) -> Callable:
    (addr_reg,) = instr.srcs
    offset = int(instr.imm or 0)
    dst = instr.dst
    to_lines = _line_math(config.l1_line_words)

    def run(core, warp, cycle):
        vrows = warp.vrows if warp.active_mask == warp._view_mask else warp.refresh()
        memory = core.memory
        if vrows is not None:
            addresses = vrows[addr_reg].astype(np.int64)
        else:
            addresses = warp.rows[addr_reg][warp.sel].astype(np.int64)
        if offset:
            addresses += offset
        # Dedup to unique lines in first-appearance order (same request order
        # and count as the reference coalescer); iterated as dict keys.
        lines = dict.fromkeys(to_lines(addresses).tolist())
        if _lines_in_bounds(lines, core._full_lines):
            if vrows is not None:
                memory.gather_unchecked(addresses, out=vrows[dst])
            else:
                warp.rows[dst][warp.sel] = memory.gather_unchecked(addresses)
        else:
            values = memory.gather(addresses)  # exact per-batch check, may raise
            if vrows is not None:
                vrows[dst][:] = values
            else:
                warp.rows[dst][warp.sel] = values
        warp.pc += 1
        return _walk(core, lines, cycle, True)
    return run


def _c_list_load(instr: Instruction, config: ArchConfig) -> Callable:
    (addr_reg,) = instr.srcs
    offset = int(instr.imm or 0)
    dst = instr.dst
    line_words = config.l1_line_words
    to_lines = _line_math(line_words)

    def run(core, warp, cycle):
        out = warp.rows[dst]
        access = _list_access(warp, addr_reg, offset, line_words, core._full_lines)
        if access is not None:
            lanes, first, last, lines = access
            data = core.memory._data
            out[lanes[0]] = data.item(first)
            if len(lanes) == 2:
                out[lanes[1]] = data.item(last)
        else:
            lanes, addresses, lines = _lane_addresses(warp, addr_reg, offset, to_lines)
            for lane, value in zip(lanes, core.memory.gather(addresses).tolist()):
                out[lane] = value
        warp.pc += 1
        return _walk(core, lines, cycle, True)
    return run


def _c_store(instr: Instruction, config: ArchConfig) -> Callable:
    value_reg, addr_reg = instr.srcs
    offset = int(instr.imm or 0)
    to_lines = _line_math(config.l1_line_words)

    def run(core, warp, cycle):
        vrows = warp.vrows if warp.active_mask == warp._view_mask else warp.refresh()
        memory = core.memory
        if vrows is not None:
            addresses = vrows[addr_reg].astype(np.int64)
            values = vrows[value_reg]
        else:
            rows, sel = warp.rows, warp.sel
            addresses = rows[addr_reg][sel].astype(np.int64)
            values = rows[value_reg][sel]
        if offset:
            addresses += offset
        lines = dict.fromkeys(to_lines(addresses).tolist())
        if _lines_in_bounds(lines, core._full_lines):
            memory.scatter_unchecked(addresses, values)
        else:
            memory.scatter(addresses, values)  # exact per-batch check, may raise
        warp.pc += 1
        return _walk(core, lines, cycle, False)
    return run


def _c_list_store(instr: Instruction, config: ArchConfig) -> Callable:
    value_reg, addr_reg = instr.srcs
    offset = int(instr.imm or 0)
    line_words = config.l1_line_words
    to_lines = _line_math(line_words)

    def run(core, warp, cycle):
        values = warp.rows[value_reg]
        access = _list_access(warp, addr_reg, offset, line_words, core._full_lines)
        if access is not None:
            lanes, first, last, lines = access
            data = core.memory._data
            data[first] = values[lanes[0]]
            if len(lanes) == 2:
                data[last] = values[lanes[1]]      # ascending lanes: lane 1 wins
        else:
            lanes, addresses, lines = _lane_addresses(warp, addr_reg, offset, to_lines)
            core.memory.scatter(addresses, np.array([values[lane] for lane in lanes]))
        warp.pc += 1
        return _walk(core, lines, cycle, False)
    return run


# -- divergence -----------------------------------------------------------
def _nonzero_mask(warp, cond_reg: int) -> int:
    """Mask of active lanes whose ``cond_reg`` is non-zero, on a numpy warp.

    Under a contiguous mask only the active view is compared and packed into
    an int by a dot product with per-lane powers of two (one numpy call,
    exact because the sum of distinct powers below 2**52 is exactly
    representable).  A divergent mask compares the whole row and masks the
    stale inactive lanes off; warps too wide for the float64 mantissa pack
    with ``packbits``.
    """
    vrows = warp.vrows if warp.active_mask == warp._view_mask else warp.refresh()
    weights = warp.vweights
    if weights is not None:
        return int((vrows[cond_reg] != 0.0).dot(weights))
    nonzero = warp.rows[cond_reg] != 0.0
    weights = warp.bit_weights
    if weights is not None:
        return int(nonzero.dot(weights)) & warp.active_mask
    packed = np.packbits(nonzero, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little") & warp.active_mask


def _list_nonzero_mask(warp, cond_reg: int) -> int:
    """:func:`_nonzero_mask` on a list warp: one comparison per active lane."""
    row = warp.rows[cond_reg]
    mask = 0
    for lane in warp.active_lanes():
        if row[lane] != 0.0:
            mask |= 1 << lane
    return mask


def _c_split(instr: Instruction, nonzero_mask: Callable) -> Callable:
    (cond_reg,) = instr.srcs
    else_pc, join_pc = instr.target, instr.target2

    def run(core, warp, cycle):
        taken = nonzero_mask(warp, cond_reg)
        full = warp.active_mask
        not_taken = full & ~taken
        if taken and not_taken:
            warp.simt_stack.append(("else", not_taken, full, else_pc, join_pc))
            warp.active_mask = taken
            warp.pc += 1
            core.counters.divergent_branches += 1
        elif taken:
            warp.simt_stack.append(("join", full, join_pc))
            warp.pc += 1
        else:
            warp.simt_stack.append(("join", full, join_pc))
            warp.pc = else_pc
    return run


def _c_loop_end(instr: Instruction, nonzero_mask: Callable) -> Callable:
    (cond_reg,) = instr.srcs
    target = instr.target

    def run(core, warp, cycle):
        alive = nonzero_mask(warp, cond_reg)
        if alive:
            if alive != warp.active_mask:
                core.counters.divergent_branches += 1
            warp.active_mask = alive
            warp.pc = target
        else:
            if not warp.simt_stack or warp.simt_stack[-1][0] != "loop":
                raise SimulationError(
                    f"core {core.core_id} warp {warp.warp_id}: LOOP_END without LOOP_BEGIN"
                )
            _, mask = warp.simt_stack.pop()
            warp.active_mask = mask
            warp.pc += 1
    return run


# ----------------------------------------------------------------------
class FastSimtCore(SimtCore):
    """SIMT core with pre-decoded issue and numpy lane execution."""

    engine_name = "fast"

    def _build_exec_table(self):
        # The reference dispatch table is dead weight here: every opcode runs
        # through its pre-compiled ``_Decoded.run`` closure instead.  Skipping
        # the ~50 closure constructions matters because cores are rebuilt for
        # every kernel call.
        return {}

    def __init__(self, core_id: int, config: ArchConfig, program: Program,
                 hierarchy: MemoryHierarchy, memory: MainMemory,
                 counters: PerfCounters, tracer=None,
                 decoded: Optional[DecodedProgram] = None):
        super().__init__(core_id, config, program, hierarchy, memory,
                         counters, tracer=tracer)
        self._fu_busy: List[int] = [0] * len(_UNIT_INDEX)
        #: Number of cache lines that lie *entirely* inside device memory.  A
        #: coalesced line index in ``[0, _full_lines)`` proves every word
        #: address of that line is in bounds, letting loads/stores take the
        #: unchecked gather/scatter path.
        self._full_lines = memory.size_words // config.l1_line_words
        self._decode = decoded if decoded is not None else decode_program(program, config)
        self._plen = len(self._decode)
        self._pc_issues: List[int] = [0] * self._plen
        self._pc_lanes: List[int] = [0] * self._plen
        self._drain_check = False
        if isinstance(self._scheduler, RoundRobinScheduler):
            self._rr_n = self._scheduler.num_warps
            self._rr_next = 0
            self._is_rr = True
            self._rr_orders: Optional[List[List[int]]] = None   # see rotations()
        else:
            self._is_rr = False
            self._rr_orders = None

    def add_warp(self, warp) -> None:
        """Attach ``warp`` with its representation's closure family."""
        warp.tups = self._decode.list_tups if warp.lists else self._decode.tups
        self.warps.append(warp)

    def rotations(self) -> List[List[int]]:
        """``rotations()[start]``: the round-robin scan order from slot
        ``start``, pre-filtered to attached warps so the scan never tests
        ``index >= num_warps``.  Built on first use -- warps are all attached
        before the first cycle -- and valid for the whole call."""
        if self._rr_orders is None:
            n, num_warps = self._rr_n, len(self.warps)
            self._rr_orders = [[index for offset in range(n)
                                if (index := (start + offset) % n) < num_warps]
                               for start in range(n)]
        return self._rr_orders

    # The per-issue logic lives inlined in :func:`run_fast` below -- one
    # Python call frame per issued instruction was the engine's largest
    # remaining overhead.

    def _release_barrier(self, cycle: int) -> None:
        for w in self.warps:
            if w.at_barrier:
                w.at_barrier = False
                w.next_issue_cycle = cycle + self.config.barrier_latency
                w._d_cache, w._ready_bound = None, 0     # un-park: recompute
        self._barrier_waiting = 0

    # ------------------------------------------------------------------ statistics
    def flush_instruction_counters(self) -> None:
        """Fold the per-PC issue tallies into the shared counters.

        Called once per kernel call by the fast GPU loop; produces exactly
        the totals the reference engine accumulates per issue.
        """
        counters = self.counters
        decode = self._decode
        lanes = self._pc_lanes
        warp_total = 0
        lane_total = 0
        buckets = {}
        for pc, issued in enumerate(self._pc_issues):
            if not issued:
                continue
            warp_total += issued
            lane_total += lanes[pc]
            bucket = decode[pc].bucket
            if bucket is not None:
                buckets[bucket] = buckets.get(bucket, 0) + issued
        counters.warp_instructions += warp_total
        counters.lane_instructions += lane_total
        for bucket, count in buckets.items():
            setattr(counters, bucket, getattr(counters, bucket) + count)
        self._pc_issues = [0] * len(self._pc_issues)
        self._pc_lanes = [0] * len(self._pc_lanes)


# ----------------------------------------------------------------------
# the event-skipping issue loop (the fast and batch engines run here)
# ----------------------------------------------------------------------
def _still_busy(busy: list, hints: list):
    """``busy`` and the parallel ``hints`` without the cores that drained."""
    keep = [i for i, entry in enumerate(busy) if entry[0].busy]
    return [busy[i] for i in keep], [hints[i] for i in keep]


def run_fast(active_cores: List[FastSimtCore], counters: PerfCounters,
             max_cycles: Optional[int], tracer, windows=None) -> int:
    """Simulate one kernel call on ``active_cores`` and return its cycle count.

    Identical cycle arithmetic to :func:`repro.sim.gpu._run_reference` --
    same visited cycles, same issue order, same stall accounting -- with two
    structural accelerations:

    * **event skipping**: a core whose cached ``next_event_hint`` lies in the
      future is charged its stall without being re-scanned, and when no core
      can issue the clock jumps straight to the earliest hint.  A cached hint
      stays valid until the core issues again because a core's readiness
      depends only on its own state (scoreboard, functional units, barriers);
      other cores influence only the *latency* charged through the shared
      memory system, never *whether* this core can issue.
    * **inlined issue**: the per-core issue attempt (the fast counterpart of
      :meth:`~repro.sim.core.SimtCore.try_issue`) is inlined into the loop
      body, saving one Python call frame per issued instruction.
    * **bounded warps**: a warp whose cached ``_ready_bound`` lies past the
      cycle is skipped on one comparison; only when nothing issues does a
      second pass compute the exact hint (each bound maxed with its unit's
      busy-until now), so visited cycles and stall counts do not move.

    Core-drain checks run only after an instruction that can halt a warp
    (``TMC``/``HALT`` set ``_drain_check`` at decode time).

    ``windows`` is the batch engine's streaming hook
    (:func:`repro.sim.batchcore._stream_window`), offered every cycle before
    it is visited as ``windows(busy, hints, cycle, jumped, max_cycles,
    tracer)`` -- ``jumped`` is True when the clock event-jumped to ``cycle``.
    It either commits a window of cycles and returns ``(window, issues,
    stalls, drained)`` for the loop to account -- every cycle of a window is
    an active cycle, since some streaming core issues on each -- or returns
    ``None`` with every warp object current, and the cycle is visited here.
    """
    # One tuple per busy core, unpacked once per issue attempt: everything
    # the attempt reads from the core that cannot change during the call.
    busy = [(core, core.warps, core.rotations() if core._is_rr else None,
             core._decode, core._fu_busy, core._pc_issues, core._pc_lanes)
            for core in active_cores if core.busy]
    # Cached per-core next_event_hint, parallel to ``busy``.  A negative
    # value means "unknown, must attempt an issue".
    hints = [-1.0] * len(busy)
    cycle = 0
    issue_cycles = stall_cycles = active_cycles = 0
    jumped = False
    while busy:
        if max_cycles is not None and cycle > max_cycles:
            raise SimulationError(
                f"kernel call exceeded max_cycles={max_cycles} "
                f"({len(busy)} cores still busy)"
            )
        if windows is not None:
            streamed = windows(busy, hints, cycle, jumped, max_cycles, tracer)
            jumped = False
            if streamed is not None:
                window, issues, stalls, drained = streamed
                cycle += window
                issue_cycles += issues
                active_cycles += window
                stall_cycles += stalls
                if drained:
                    busy, hints = _still_busy(busy, hints)
                continue
        issued = 0
        drained = False
        next_hint = NEVER
        for i, entry in enumerate(busy):
            hint = hints[i]
            if hint > cycle:
                if hint < next_hint:
                    next_hint = hint
                continue
            core, warps, orders, decode, fu_busy, pc_issues, pc_lanes = entry
            # ---- one issue attempt for `core` (try_issue, inlined) ----
            if orders is not None:
                order = orders[core._rr_next]
            else:
                num_warps = len(warps)
                order = [w for w in core._scheduler.priority_order()
                         if w < num_warps]
            for index in order:
                warp = warps[index]
                # A stalled warp costs one comparison (FastWarp._ready_bound).
                if warp._ready_bound > cycle:
                    continue
                d = warp._d_cache
                if d is None:
                    # Never halted or at a barrier: those warps are parked.
                    pc = warp.pc
                    try:
                        d = warp.tups[pc]
                    except IndexError:
                        # Exactly the reference failure mode: tuple indexing
                        # in both engines wraps negative PCs and raises past
                        # the end.
                        raise SimulationError(
                            f"core {core.core_id} warp {warp.warp_id}: "
                            f"PC {pc} ran off the program"
                        ) from None
                    (run, dst, check_regs, default_latency, interval,
                     unit_index, fu_check, is_mem) = d
                    ready = warp.next_issue_cycle
                    reg_ready = warp.reg_ready
                    for reg in check_regs:
                        pending = reg_ready[reg]
                        if pending > ready:
                            ready = pending
                    if fu_check and fu_busy[unit_index] > ready:
                        ready = fu_busy[unit_index]
                    if ready > cycle:
                        # The common immediate-issue case skips these writes.
                        warp._d_cache = d
                        warp._ready_bound = ready
                        continue
                else:
                    # Own readiness has passed: only the unit can hold it back.
                    (run, dst, check_regs, default_latency, interval,
                     unit_index, fu_check, is_mem) = d
                    if fu_check and fu_busy[unit_index] > cycle:
                        warp._ready_bound = fu_busy[unit_index]
                        continue
                    # Cleared before ``run``: HALT, TMC and BAR park here.
                    warp._d_cache = None
                    pc = warp.pc
                # ---- issue ----
                pc_issues[pc] += 1
                pc_lanes[pc] += warp.active_mask.bit_count()
                if tracer is not None:
                    instr = decode[pc].instr
                    tracer.record(cycle=cycle, core=core.core_id,
                                  warp=warp.warp_id, pc=pc,
                                  opcode=instr.opcode,
                                  mask=warp.active_mask,
                                  section=instr.section)
                latency = run(core, warp, cycle)
                if latency is None:
                    latency = default_latency
                if dst is not None:
                    warp.reg_ready[dst] = cycle + latency
                fu_hold = interval
                if is_mem and core._last_line_count > fu_hold:
                    fu_hold = core._last_line_count
                if fu_hold > 1:
                    fu_busy[unit_index] = cycle + fu_hold
                warp.next_issue_cycle = cycle + 1
                # Completed scoreboard entries are *not* eagerly retired: an
                # entry whose cycle has passed can never change a decision
                # or a hint (readiness is a max against future constraints),
                # and each slot is overwritten on its next write, so the list
                # stays bounded by the register count.
                if orders is not None:
                    core._rr_next = (index + 1) % core._rr_n
                else:
                    core._scheduler.issued(index)
                break
            else:
                # Nothing issued: every warp holds a bound; re-read its unit.
                earliest = NEVER
                for index in order:
                    warp = warps[index]
                    ready = warp._ready_bound
                    d = warp._d_cache
                    if d[6] and fu_busy[d[5]] > ready:     # fu_check, unit_index
                        ready = fu_busy[d[5]]
                    if ready < earliest:
                        earliest = ready
                hints[i] = earliest
                if earliest < next_hint:
                    next_hint = earliest
                continue
            issued += 1
            hints[i] = -1.0
            if core._drain_check:
                core._drain_check = False
                if not core.busy:
                    drained = True
        # Every busy core either issued or stalled this visited cycle -- the
        # same per-core accounting as the reference loop.
        stall_cycles += len(busy) - issued
        if issued:
            issue_cycles += issued
            active_cycles += 1
            cycle += 1
            if drained:
                busy, hints = _still_busy(busy, hints)
        else:
            if next_hint is NEVER or next_hint <= cycle:
                raise SimulationError(
                    f"simulation deadlock at cycle {cycle}: no core can "
                    f"make progress"
                )
            cycle = int(next_hint)
            jumped = True
    counters.issue_cycles += issue_cycles
    counters.stall_cycles += stall_cycles
    counters.active_cycles += active_cycles
    for core in active_cores:
        core.flush_instruction_counters()
    return cycle
