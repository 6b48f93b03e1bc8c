"""Trace compiler for the ``batch`` engine.

:func:`compile_program` runs once per (program, config) and turns the fast
engine's per-PC decode into a *batch program*: every PC is classified by how
it can execute across **all resident warps of a core at once**, and maximal
straight-line runs of element-wise PCs are segmented into *traces* whose
cross-warp hazard structure is solved in closed form at compile time.

Classification (:attr:`BatchOp.kind`):

``"ewise"``
    Register-to-register lane arithmetic whose :data:`~repro.isa.opcodes.OPS`
    row has a ``rows`` form, plus ``LI``.  A ``rows`` form equals the
    per-lane ``lane`` form bit for bit on every float64 input and never
    raises, so one such PC executes for a whole round of warps as a single
    2-D ufunc over the core's stacked register file -- with an optional
    boolean mask for divergent rounds (compute the full slab, stale inactive
    lanes included, then ``np.copyto(..., where=mask)`` only the active
    lanes).
``"load"`` / ``"store"``
    Memory ops with initiation interval 1.  A round whose every warp
    coalesces to a *single* in-bounds cache line executes as one 2-D
    gather/scatter per core plus one hierarchy walk per warp; anything else
    falls back to the fast engine's exact per-warp handler.
``"scalar"``
    Correct but not batchable across lanes/warps (control flow, the
    Python-int ops, NOP, unknown-CSR reads).  A uniform round still
    *streams*: the fast handlers run per warp in slot order without
    re-running the scheduler scan.  Known-CSR reads are *promoted* to ewise
    moves from pseudo-register slab rows staged at adopt time
    (:func:`_promote_csrr`), since CSR values are launch constants.
``"stop"``
    Never streamed: barrier/halt/TMC (they park or kill warps), every op
    with an initiation interval other than 1 (its functional-unit hold
    would space the round's issues apart) and any interval-1 op whose
    functional unit another instruction can occupy.  The run loop falls
    back to the exact fast-engine path at these PCs.

Trace feasibility is closed-form: when round ``j`` of a trace reads a
register written by round ``i`` with latency ``L``, the write completes
``L`` cycles after its issue and the read issues ``(j - i) * n`` cycles
later (``n`` = warps per round), so the hazard clears for every warp iff
``(j - i) * n >= L``.  :attr:`TraceInfo.min_warps` stores the resulting
per-prefix floor; registers read before any trace round writes them become
entry guards checked against the live scoreboard at run time
(:attr:`TraceInfo.livein_regs` / :attr:`TraceInfo.livein_rounds`).

Equivalence with the reference engine is enforced by
``tests/test_engine_differential.py`` and ``tests/test_engine_fuzz.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPS, Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_ARG_SLOTS, Csr
from repro.sim.config import ArchConfig
from repro.sim.fastcore import _Decoded, _UNIFORM_CSR_ATTRS, _line_math, decode_program

#: Opcodes that stop streaming outright: they park/halt warps or drain the
#: core, so every round guard around them would be unsound.
_STOP_OPS = (Opcode.BAR, Opcode.TMC, Opcode.HALT)


class BatchOp:
    """One PC of the batch program (see module docstring for the kinds)."""

    __slots__ = ("kind", "run2d", "instr", "run", "dst", "check_regs",
                 "latency", "unit_index", "addr_reg", "value_reg", "offset",
                 "to_lines")

    def __init__(self, kind: str, decoded: _Decoded):
        self.kind = kind
        self.instr = decoded.instr
        self.run = decoded.run                  # the fast per-warp handler
        self.dst = decoded.dst
        self.check_regs = decoded.check_regs
        self.latency = decoded.default_latency
        self.unit_index = decoded.unit_index
        self.run2d: Optional[Callable] = None
        self.addr_reg = self.value_reg = self.offset = -1
        self.to_lines: Optional[Callable] = None


class TraceInfo:
    """Streaming constraints for the straight-line ewise run starting at a PC.

    One instance exists per *ewise* PC, describing the suffix of its run: a
    round that enters mid-block (after a reconvergence or a jump) streams the
    remainder of the block under exactly the same closed-form guarantees.
    """

    __slots__ = ("length", "ops", "min_warps", "livein_regs", "livein_rounds",
                 "write_rounds", "write_dsts", "write_latencies")

    def __init__(self, ops: List[BatchOp]):
        self.length = len(ops)
        self.ops = ops
        min_warps = [1] * self.length
        last_writer: Dict[int, Tuple[int, int]] = {}
        livein: Dict[int, int] = {}
        writes: List[Tuple[int, int, int]] = []
        for j, op in enumerate(ops):
            for reg in op.check_regs:
                writer = last_writer.get(reg)
                if writer is None:
                    livein.setdefault(reg, j)
                else:
                    i, lat = writer
                    need = -(-lat // (j - i))  # ceil(lat / gap)
                    if need > min_warps[j]:
                        min_warps[j] = need
            if op.dst is not None:
                last_writer[op.dst] = (j, op.latency)
                writes.append((j, op.dst, op.latency))
        for j in range(1, self.length):   # feasibility is a prefix property
            if min_warps[j] < min_warps[j - 1]:
                min_warps[j] = min_warps[j - 1]
        self.min_warps = min_warps
        pairs = sorted(livein.items(), key=lambda item: item[1])
        self.livein_regs = np.array([reg for reg, _ in pairs], dtype=np.intp)
        self.livein_rounds = np.array([rnd for _, rnd in pairs], dtype=np.int64)
        self.write_rounds = [j for j, _, _ in writes]
        self.write_dsts = [dst for _, dst, _ in writes]
        self.write_latencies = [lat for _, _, lat in writes]


class CompiledProgram:
    """Everything the batch run loop needs about one (program, config)."""

    __slots__ = ("program", "decoded", "ops", "traces", "csr_slots",
                 "num_slabs")

    def __init__(self, program: Program, decoded: List[_Decoded],
                 ops: List[BatchOp], traces: Dict[int, TraceInfo],
                 csr_slots: Dict[int, int]):
        self.program = program
        self.decoded = decoded
        self.ops = ops
        self.traces = traces
        #: CSR number -> pseudo-register slab row (appended after the real
        #: registers); filled per warp at adopt time, read-only afterwards.
        self.csr_slots = csr_slots
        self.num_slabs = program.num_registers + len(csr_slots)


# ----------------------------------------------------------------------
# 2-D handlers: one numpy call over the (warps, lanes) register slab.
# ``sel`` is None when every warp's mask is full, else a bool (warps, lanes)
# mask.  Masked rounds compute the whole slab into ``scratch`` and copy back
# only the active lanes -- bit-identical because a ``rows`` form is an
# elementwise, exception-free map (subsetting commutes with it).
# ----------------------------------------------------------------------
def _b_binary(instr: Instruction, np_fn: Callable) -> Callable:
    s0, s1 = instr.srcs
    dst = instr.dst
    if isinstance(np_fn, np.ufunc):
        def run2d(slabs, scratch, sel):
            if sel is None:
                np_fn(slabs[s0], slabs[s1], out=slabs[dst])
            else:
                np_fn(slabs[s0], slabs[s1], out=scratch)
                np.copyto(slabs[dst], scratch, where=sel)
        return run2d

    def run2d(slabs, scratch, sel):
        if sel is None:
            slabs[dst][...] = np_fn(slabs[s0], slabs[s1])
        else:
            np.copyto(slabs[dst], np_fn(slabs[s0], slabs[s1]), where=sel)
    return run2d


def _b_unary(instr: Instruction, np_fn: Callable) -> Callable:
    (s0,) = instr.srcs
    dst = instr.dst
    if isinstance(np_fn, np.ufunc):
        def run2d(slabs, scratch, sel):
            if sel is None:
                np_fn(slabs[s0], out=slabs[dst])
            else:
                np_fn(slabs[s0], out=scratch)
                np.copyto(slabs[dst], scratch, where=sel)
        return run2d

    def run2d(slabs, scratch, sel):
        if sel is None:
            slabs[dst][...] = np_fn(slabs[s0])
        else:
            np.copyto(slabs[dst], np_fn(slabs[s0]), where=sel)
    return run2d


def _b_fma(instr: Instruction) -> Callable:
    """``FMA``'s row form, the product staged in ``scratch``."""
    s0, s1, s2 = instr.srcs
    dst = instr.dst

    def run2d(slabs, scratch, sel):
        np.multiply(slabs[s0], slabs[s1], out=scratch)
        if sel is None:
            np.add(scratch, slabs[s2], out=slabs[dst])
        else:
            np.add(scratch, slabs[s2], out=scratch)
            np.copyto(slabs[dst], scratch, where=sel)
    return run2d


def _b_li(instr: Instruction, value: float) -> Callable:
    dst = instr.dst

    def run2d(slabs, scratch, sel):
        if sel is None:
            slabs[dst].fill(value)
        else:
            np.copyto(slabs[dst], value, where=sel)
    return run2d


def _b_csrr(instr: Instruction, slot: int) -> Callable:
    """CSRR as a move from the CSR pseudo-register slab row ``slot``."""
    dst = instr.dst

    def run2d(slabs, scratch, sel):
        if sel is None:
            slabs[dst][...] = slabs[slot]
        else:
            np.copyto(slabs[dst], slabs[slot], where=sel)
    return run2d


def _csr_promotable(csr_number: int) -> bool:
    """CSR numbers whose per-lane values are fixed for the whole kernel call
    (no opcode writes CSRs) and readable without raising -- an unknown number
    must keep the scalar path so it raises at execution, not at adopt."""
    return (csr_number == Csr.THREAD_ID
            or csr_number in (Csr.WORKGROUP_ID, Csr.LOCAL_COUNT)
            or csr_number in _UNIFORM_CSR_ATTRS
            or Csr.ARG_BASE <= csr_number < Csr.ARG_BASE + NUM_ARG_SLOTS)


def _promote_csrr(ops: List[BatchOp], num_regs: int) -> Dict[int, int]:
    """Turn known-CSR reads into ewise moves from pseudo-register rows.

    CSR values never change during a call, so a CSRR is a register move once
    the values are staged into the slab stack -- which lets CSRR-heavy
    prologues join traces instead of running one fast handler per warp.
    Returns the CSR number -> slab row map the adopt step must fill (rows are
    appended after the ``num_regs`` real registers).
    """
    csr_slots: Dict[int, int] = {}
    for op in ops:
        if op.kind != "scalar" or op.instr.opcode is not Opcode.CSRR:
            continue
        csr_number = int(op.instr.imm)
        if not _csr_promotable(csr_number):
            continue
        slot = csr_slots.setdefault(csr_number, len(csr_slots))
        op.kind = "ewise"
        op.run2d = _b_csrr(op.instr, num_regs + slot)
    return csr_slots


def _ewise_handler(instr: Instruction) -> Optional[Callable]:
    spec = OPS[instr.opcode]
    if spec.rows is not None:
        if spec.srcs == 3:
            return _b_fma(instr)
        return (_b_unary if spec.srcs == 1 else _b_binary)(instr, spec.rows)
    if spec.lane is not None and spec.srcs == 0:
        return _b_li(instr, spec.lane(instr.imm))
    return None


# ----------------------------------------------------------------------
def _classify(decoded: _Decoded, config: ArchConfig) -> BatchOp:
    instr = decoded.instr
    opcode = instr.opcode
    if opcode in _STOP_OPS or decoded.initiation_interval != 1:
        return BatchOp("stop", decoded)
    if decoded.is_mem:
        op = BatchOp("load" if opcode is Opcode.LOAD else "store", decoded)
        if opcode is Opcode.LOAD:
            (op.addr_reg,) = instr.srcs
        else:
            op.value_reg, op.addr_reg = instr.srcs
        op.offset = int(instr.imm or 0)
        op.to_lines = _line_math(config.l1_line_words)
        return op
    if decoded.fu_check:
        # Interval-1 op on a unit another instruction can mark busy: the
        # round guard never re-reads the FU table mid-round, so these must
        # take the exact path.
        return BatchOp("stop", decoded)
    run2d = _ewise_handler(instr)
    if run2d is not None:
        op = BatchOp("ewise", decoded)
        op.run2d = run2d
        return op
    return BatchOp("scalar", decoded)


def compile_program(program: Program, config: ArchConfig,
                    decoded: Optional[List[_Decoded]] = None) -> CompiledProgram:
    """Compile ``program`` for ``config``, uncached (the engine goes through
    :func:`repro.sim.batchcore.compiled_program`, once per process)."""
    if decoded is None:
        decoded = decode_program(program, config)
    ops = [_classify(d, config) for d in decoded]
    csr_slots = _promote_csrr(ops, program.num_registers)
    traces: Dict[int, TraceInfo] = {}
    pc = 0
    plen = len(ops)
    while pc < plen:
        if ops[pc].kind != "ewise":
            pc += 1
            continue
        end = pc
        while end < plen and ops[end].kind == "ewise":
            end += 1
        for start in range(pc, end):  # one suffix trace per entry PC
            traces[start] = TraceInfo(ops[start:end])
        pc = end
    return CompiledProgram(program, decoded, ops, traces, csr_slots)
