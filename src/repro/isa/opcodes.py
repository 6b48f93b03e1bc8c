"""Opcode definitions for the SIMT ISA.

Every opcode is one :class:`Opcode` member plus one :data:`OPS` row, and the
row is the only place its class, arity and semantics are written: the three
simulation engines build their handlers from it.  Classes
(:class:`OpClass`) route instructions to functional units and let the trace
analyser classify cycles as compute, memory or control work.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np


class SimulationError(RuntimeError):
    """Raised when a kernel performs an illegal operation (bad PC, div by zero...)."""


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


@dataclass(frozen=True)
class OpSpec:
    """One opcode's definition.

    ``srcs`` is the number of source registers.  ``lane`` is the per-lane
    scalar semantics over float64 register values (for a 0-source opcode it
    maps the immediate); every register-writing arithmetic opcode has one.
    ``rows`` is the same operation over register rows, and it has one
    invariant: on every float64 input -- NaN, +-inf and signed zero included
    -- it equals ``lane`` bit for bit and never raises, so an engine may run
    it over inactive lanes and keep only the active ones.  An opcode whose
    numpy form would differ or raise has no ``rows`` and runs ``lane`` per
    lane.
    """

    cls: OpClass
    srcs: int
    lane: Optional[Callable[..., float]] = None
    rows: Optional[Callable[..., np.ndarray]] = None
    writes: bool = False     # produces a destination-register result


def _arith(cls: OpClass, srcs: int, lane: Callable, rows: Optional[Callable] = None) -> OpSpec:
    return OpSpec(cls, srcs, lane, rows, writes=True)


# -- lane forms that raise (integer ops truncate toward zero, as RISC-V does) --
def _div(a: float, b: float) -> float:
    if b == 0:
        raise SimulationError("integer division by zero")
    return float(math.trunc(a / b))


def _rem(a: float, b: float) -> float:
    if b == 0:
        raise SimulationError("integer remainder by zero")
    return float(a - math.trunc(a / b) * b)


def checked_fdiv(a: float, b: float) -> float:
    """``FDIV``'s lane form; the fast engine checks a whole row for a zero
    divisor before one ``np.divide``."""
    if b == 0.0:
        raise SimulationError("floating-point division by zero")
    return a / b


# -- row forms ------------------------------------------------------------
def _same(a):
    return a


def _pymin(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Python's ``min(a, b)`` (``a`` unless ``b < a``): ``np.minimum``
    differs for NaNs and signed zeros."""
    return np.where(b < a, b, a)


def _pymax(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Python's ``max(a, b)``, see :func:`_pymin`."""
    return np.where(b > a, b, a)


def _fma_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return a * b + c


# Shared (lane, rows) pairs.  A comparison's row form is the bool row itself:
# storing it into a float64 register row writes exactly 1.0 / 0.0.
_ADD = (lambda a, b: a + b, np.add)
_SUB = (lambda a, b: a - b, np.subtract)
_MUL = (lambda a, b: a * b, np.multiply)
_LT = (lambda a, b: 1.0 if a < b else 0.0, lambda a, b: a < b)
_LE = (lambda a, b: 1.0 if a <= b else 0.0, lambda a, b: a <= b)
_EQ = (lambda a, b: 1.0 if a == b else 0.0, lambda a, b: a == b)
_MIN = (min, _pymin)
_MAX = (max, _pymax)
_ABS = (abs, np.abs)
_NEG = (lambda a: -a, np.negative)

_INT, _FLOAT = OpClass.INT_ALU, OpClass.FLOAT

#: The one definition of every opcode.
OPS: Dict[Opcode, OpSpec] = {
    Opcode.ADD: _arith(_INT, 2, *_ADD),
    Opcode.SUB: _arith(_INT, 2, *_SUB),
    Opcode.MUL: _arith(OpClass.INT_MUL, 2, *_MUL),
    # No row form for DIV/REM: they truncate through ``math.trunc``, which
    # raises on inf/NaN where ``np.trunc`` would propagate them.
    Opcode.DIV: _arith(OpClass.SFU, 2, _div),
    Opcode.REM: _arith(OpClass.SFU, 2, _rem),
    # No row form for the bitwise ops: Python ints never wrap (SHL of 2.0 by
    # 62 is exact where int64 wraps negative), a negative shift count must
    # raise, and operands at or beyond 2**63 overflow an int64 cast.
    Opcode.AND: _arith(_INT, 2, lambda a, b: float(int(a) & int(b))),
    Opcode.OR: _arith(_INT, 2, lambda a, b: float(int(a) | int(b))),
    Opcode.XOR: _arith(_INT, 2, lambda a, b: float(int(a) ^ int(b))),
    Opcode.SHL: _arith(_INT, 2, lambda a, b: float(int(a) << int(b))),
    Opcode.SHR: _arith(_INT, 2, lambda a, b: float(int(a) >> int(b))),
    Opcode.SLT: _arith(_INT, 2, *_LT),
    Opcode.SLE: _arith(_INT, 2, *_LE),
    Opcode.SEQ: _arith(_INT, 2, *_EQ),
    Opcode.SNE: _arith(_INT, 2, lambda a, b: 1.0 if a != b else 0.0, lambda a, b: a != b),
    Opcode.MIN: _arith(_INT, 2, *_MIN),
    Opcode.MAX: _arith(_INT, 2, *_MAX),
    Opcode.ABS: _arith(_INT, 1, *_ABS),
    Opcode.NEG: _arith(_INT, 1, *_NEG),
    Opcode.LI: _arith(_INT, 0, float),
    Opcode.MOV: _arith(_INT, 1, _same, _same),
    Opcode.FADD: _arith(_FLOAT, 2, *_ADD),
    Opcode.FSUB: _arith(_FLOAT, 2, *_SUB),
    Opcode.FMUL: _arith(_FLOAT, 2, *_MUL),
    # No row form: a zero divisor raises (see checked_fdiv).
    Opcode.FDIV: _arith(OpClass.SFU, 2, checked_fdiv),
    # IEEE 754 sqrt is correctly rounded in libm and numpy alike.
    Opcode.FSQRT: _arith(OpClass.SFU, 1, lambda a: math.sqrt(a) if a > 0.0 else 0.0,
                         lambda a: np.sqrt(np.where(a > 0.0, a, 0.0))),
    # Two roundings, like the lane form: not a fused multiply-add.
    Opcode.FMA: _arith(_FLOAT, 3, lambda a, b, c: a * b + c, _fma_rows),
    Opcode.FMIN: _arith(_FLOAT, 2, *_MIN),
    Opcode.FMAX: _arith(_FLOAT, 2, *_MAX),
    Opcode.FABS: _arith(_FLOAT, 1, *_ABS),
    Opcode.FNEG: _arith(_FLOAT, 1, *_NEG),
    # No row form for FEXP/FLOG: libm and numpy transcendentals may differ
    # in the last ulp.
    Opcode.FEXP: _arith(OpClass.SFU, 1, math.exp),
    Opcode.FLOG: _arith(OpClass.SFU, 1, lambda a: math.log(a) if a > 0.0 else float("-inf")),
    Opcode.FLT: _arith(_FLOAT, 2, *_LT),
    Opcode.FLE: _arith(_FLOAT, 2, *_LE),
    Opcode.FEQ: _arith(_FLOAT, 2, *_EQ),
    Opcode.I2F: _arith(_FLOAT, 1, float, _same),
    # No row form: ``int()`` raises on NaN/inf where ``np.trunc`` propagates.
    Opcode.F2I: _arith(_FLOAT, 1, lambda a: float(int(a))),
    Opcode.LOAD: OpSpec(OpClass.MEMORY, 1, writes=True),
    Opcode.STORE: OpSpec(OpClass.MEMORY, 2),
    Opcode.JMP: OpSpec(OpClass.CONTROL, 0),
    Opcode.SPLIT: OpSpec(OpClass.CONTROL, 1),
    Opcode.JOIN: OpSpec(OpClass.CONTROL, 0),
    Opcode.LOOP_BEGIN: OpSpec(OpClass.CONTROL, 0),
    Opcode.LOOP_END: OpSpec(OpClass.CONTROL, 1),
    Opcode.CSRR: OpSpec(OpClass.SIMT, 0, writes=True),
    Opcode.BAR: OpSpec(OpClass.SIMT, 0),
    Opcode.TMC: OpSpec(OpClass.SIMT, 0),
    Opcode.NOP: OpSpec(OpClass.PSEUDO, 0),
    Opcode.HALT: OpSpec(OpClass.PSEUDO, 0),
}
