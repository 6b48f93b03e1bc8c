"""Opcode definitions for the SIMT ISA.

Opcodes are grouped into classes (:class:`OpClass`) which the simulator uses
to route instructions to functional units and the trace analyser uses to
classify cycles as compute, memory or control work.
"""

from __future__ import annotations

import enum


class OpClass(enum.Enum):
    """Coarse grouping of opcodes, used for issue routing and trace analysis."""

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    FLOAT = "float"
    SFU = "sfu"          # special function unit: divides, square roots, exp/log
    MEMORY = "memory"
    CONTROL = "control"
    SIMT = "simt"        # thread-mask / barrier / CSR instructions
    PSEUDO = "pseudo"    # no hardware cost (labels resolved away, HALT)


class Opcode(enum.Enum):
    """Every instruction the simulator can execute."""

    # --- integer ALU -----------------------------------------------------
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    SLT = "slt"          # set if less-than (signed)
    SLE = "sle"          # set if less-or-equal
    SEQ = "seq"          # set if equal
    SNE = "sne"          # set if not equal
    MIN = "min"
    MAX = "max"
    ABS = "abs"
    NEG = "neg"
    # --- immediates / moves ----------------------------------------------
    LI = "li"            # load immediate
    MOV = "mov"          # register move
    # --- floating point ---------------------------------------------------
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FSQRT = "fsqrt"
    FMA = "fma"          # dst = src0 * src1 + src2
    FMIN = "fmin"
    FMAX = "fmax"
    FABS = "fabs"
    FNEG = "fneg"
    FEXP = "fexp"
    FLOG = "flog"
    FLT = "flt"          # float compare: set if less-than
    FLE = "fle"
    FEQ = "feq"
    I2F = "i2f"
    F2I = "f2i"          # truncating conversion
    # --- memory -----------------------------------------------------------
    LOAD = "load"        # dst = mem[src0 + imm]
    STORE = "store"      # mem[src1 + imm] = src0
    # --- control flow -----------------------------------------------------
    JMP = "jmp"          # unconditional jump to target
    SPLIT = "split"      # structured divergence: branch on src0, per-lane
    JOIN = "join"        # reconverge with the matching SPLIT
    LOOP_BEGIN = "loop_begin"  # push loop reconvergence mask
    LOOP_END = "loop_end"      # backward branch while any lane wants another trip
    # --- SIMT / system ----------------------------------------------------
    CSRR = "csrr"        # read a control/status register (per-lane value)
    BAR = "bar"          # warp barrier within a core
    TMC = "tmc"          # set thread mask to the low `imm` lanes (Vortex tmc)
    NOP = "nop"
    HALT = "halt"


#: Opcode -> OpClass routing table.
OP_CLASS: dict[Opcode, OpClass] = {
    Opcode.ADD: OpClass.INT_ALU,
    Opcode.SUB: OpClass.INT_ALU,
    Opcode.MUL: OpClass.INT_MUL,
    Opcode.DIV: OpClass.SFU,
    Opcode.REM: OpClass.SFU,
    Opcode.AND: OpClass.INT_ALU,
    Opcode.OR: OpClass.INT_ALU,
    Opcode.XOR: OpClass.INT_ALU,
    Opcode.SHL: OpClass.INT_ALU,
    Opcode.SHR: OpClass.INT_ALU,
    Opcode.SLT: OpClass.INT_ALU,
    Opcode.SLE: OpClass.INT_ALU,
    Opcode.SEQ: OpClass.INT_ALU,
    Opcode.SNE: OpClass.INT_ALU,
    Opcode.MIN: OpClass.INT_ALU,
    Opcode.MAX: OpClass.INT_ALU,
    Opcode.ABS: OpClass.INT_ALU,
    Opcode.NEG: OpClass.INT_ALU,
    Opcode.LI: OpClass.INT_ALU,
    Opcode.MOV: OpClass.INT_ALU,
    Opcode.FADD: OpClass.FLOAT,
    Opcode.FSUB: OpClass.FLOAT,
    Opcode.FMUL: OpClass.FLOAT,
    Opcode.FDIV: OpClass.SFU,
    Opcode.FSQRT: OpClass.SFU,
    Opcode.FMA: OpClass.FLOAT,
    Opcode.FMIN: OpClass.FLOAT,
    Opcode.FMAX: OpClass.FLOAT,
    Opcode.FABS: OpClass.FLOAT,
    Opcode.FNEG: OpClass.FLOAT,
    Opcode.FEXP: OpClass.SFU,
    Opcode.FLOG: OpClass.SFU,
    Opcode.FLT: OpClass.FLOAT,
    Opcode.FLE: OpClass.FLOAT,
    Opcode.FEQ: OpClass.FLOAT,
    Opcode.I2F: OpClass.FLOAT,
    Opcode.F2I: OpClass.FLOAT,
    Opcode.LOAD: OpClass.MEMORY,
    Opcode.STORE: OpClass.MEMORY,
    Opcode.JMP: OpClass.CONTROL,
    Opcode.SPLIT: OpClass.CONTROL,
    Opcode.JOIN: OpClass.CONTROL,
    Opcode.LOOP_BEGIN: OpClass.CONTROL,
    Opcode.LOOP_END: OpClass.CONTROL,
    Opcode.CSRR: OpClass.SIMT,
    Opcode.BAR: OpClass.SIMT,
    Opcode.TMC: OpClass.SIMT,
    Opcode.NOP: OpClass.PSEUDO,
    Opcode.HALT: OpClass.PSEUDO,
}

#: Opcodes that write a destination register.
WRITEBACK_OPS = frozenset(
    op
    for op, cls in OP_CLASS.items()
    if cls in (OpClass.INT_ALU, OpClass.INT_MUL, OpClass.FLOAT, OpClass.SFU)
) | {Opcode.LOAD, Opcode.CSRR}


def op_class(opcode: Opcode) -> OpClass:
    """Return the :class:`OpClass` of ``opcode``."""
    return OP_CLASS[opcode]


def writes_register(opcode: Opcode) -> bool:
    """True when ``opcode`` produces a destination-register result."""
    return opcode in WRITEBACK_OPS
