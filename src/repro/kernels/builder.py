"""Kernel builder: a small structured-programming DSL that emits SIMT IR.

The builder stands in for OpenCL C plus the POCL compiler of the original
Vortex flow.  A kernel body is ordinary Python code driving a
:class:`KernelBuilder`; every arithmetic operation, memory access and control
construct appends instructions to the builder, and :meth:`KernelBuilder.link`
produces an executable :class:`~repro.isa.program.Program`.

Control flow is *structured*: divergence is expressed through ``if_`` /
``if_then_else`` (mapped to the ISA's SPLIT/JOIN pair) and counted loops
through ``for_range`` (mapped to LOOP_BEGIN/LOOP_END), exactly the constructs
Vortex's split/join thread-mask instructions support.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, List, Optional, Union

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import Csr, NUM_ARG_SLOTS
from repro.kernels.values import FLOAT, INT, Number, Value


class BuildError(RuntimeError):
    """Raised when a kernel body uses the builder incorrectly."""


class KernelBuilder:
    """Accumulates instructions for one kernel (or workgroup wrapper).

    The builder tracks the current semantic *section* tag; every emitted
    instruction is stamped with it so traces can be annotated the way the
    paper's Figure 1 annotates them.
    """

    def __init__(self, name: str):
        self.name = name
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._next_register = 0
        self._next_label = 0
        self._section_stack: List[str] = ["body"]
        # Constant reuse is scoped to structured control regions: a constant
        # materialised inside an if/loop body may only be reused while that
        # region is still open, otherwise lanes that skipped the region would
        # read an unwritten register.
        self._const_cache: Dict[tuple, Value] = {}
        self._region_consts: List[List[tuple]] = [[]]

    # ------------------------------------------------------------------
    # low-level emission
    # ------------------------------------------------------------------
    @property
    def current_section(self) -> str:
        """Section tag applied to the next emitted instruction."""
        return self._section_stack[-1]

    def emit(self, instruction: Instruction) -> int:
        """Append ``instruction`` (stamped with the current section); return its index."""
        self._instructions.append(instruction.with_section(self.current_section))
        return len(self._instructions) - 1

    def new_register(self) -> int:
        """Allocate a fresh virtual register index."""
        reg = self._next_register
        self._next_register += 1
        return reg

    def new_value(self, dtype: str) -> Value:
        """Allocate a fresh register wrapped in a :class:`Value`."""
        return Value(self, self.new_register(), dtype)

    def new_label(self, hint: str = "L") -> str:
        """Return a fresh, unique label name."""
        self._next_label += 1
        return f"{hint}_{self._next_label}"

    def place_label(self, label: str) -> None:
        """Bind ``label`` to the next instruction to be emitted."""
        if label in self._labels:
            raise BuildError(f"label {label!r} already placed")
        self._labels[label] = len(self._instructions)

    @contextlib.contextmanager
    def section(self, name: str):
        """Tag every instruction emitted inside the ``with`` block with ``name``."""
        self._section_stack.append(name)
        try:
            yield
        finally:
            self._section_stack.pop()

    # ------------------------------------------------------------------
    # constants, CSRs and kernel arguments
    # ------------------------------------------------------------------
    def const(self, value: Number, dtype: Optional[str] = None) -> Value:
        """Materialise a constant.

        Repeated requests for the same constant reuse one register as long as
        the original definition is still in scope (same or enclosing control
        region).
        """
        if dtype is None:
            dtype = INT if isinstance(value, int) and not isinstance(value, bool) else FLOAT
        key = (value, dtype)
        cached = self._const_cache.get(key)
        if cached is not None:
            return cached
        dst = self.new_value(dtype)
        self.emit(Instruction(Opcode.LI, dst=dst.reg, imm=value, comment=f"const {value}"))
        self._const_cache[key] = dst
        self._region_consts[-1].append(key)
        return dst

    def _push_region(self) -> None:
        self._region_consts.append([])

    def _pop_region(self) -> None:
        for key in self._region_consts.pop():
            self._const_cache.pop(key, None)

    def csr(self, csr: Union[Csr, int], dtype: str = INT) -> Value:
        """Read a control/status register into a fresh value."""
        dst = self.new_value(dtype)
        name = csr.name if isinstance(csr, Csr) else f"0x{int(csr):x}"
        self.emit(Instruction(Opcode.CSRR, dst=dst.reg, imm=int(csr), comment=f"csr {name}"))
        return dst

    def kernel_arg(self, slot: int, dtype: str) -> Value:
        """Read scalar-argument ``slot`` (buffer base addresses are integers)."""
        if not (0 <= slot < NUM_ARG_SLOTS):
            raise BuildError(f"kernel argument slot {slot} out of range")
        return self.csr(int(Csr.ARG_BASE) + slot, dtype=dtype)

    # ------------------------------------------------------------------
    # type handling
    # ------------------------------------------------------------------
    def to_float(self, value: Value) -> Value:
        if value.dtype == FLOAT:
            return value
        dst = self.new_value(FLOAT)
        self.emit(Instruction(Opcode.I2F, dst=dst.reg, srcs=(value.reg,)))
        return dst

    def to_int(self, value: Value) -> Value:
        if value.dtype == INT:
            return value
        dst = self.new_value(INT)
        self.emit(Instruction(Opcode.F2I, dst=dst.reg, srcs=(value.reg,)))
        return dst

    def _binary(self, int_op: Opcode, float_op: Optional[Opcode], a: Value, b: Value,
                result_dtype: Optional[str] = None) -> Value:
        if a.dtype == INT and b.dtype == INT:
            op, dtype = int_op, INT
        else:
            if float_op is None:
                raise BuildError(f"{int_op.name} is integer-only")
            a, b = self.to_float(a), self.to_float(b)
            op, dtype = float_op, FLOAT
        dst = self.new_value(result_dtype or dtype)
        self.emit(Instruction(op, dst=dst.reg, srcs=(a.reg, b.reg)))
        return dst

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def add(self, a: Value, b: Value) -> Value:
        return self._binary(Opcode.ADD, Opcode.FADD, a, b)

    def sub(self, a: Value, b: Value) -> Value:
        return self._binary(Opcode.SUB, Opcode.FSUB, a, b)

    def mul(self, a: Value, b: Value) -> Value:
        return self._binary(Opcode.MUL, Opcode.FMUL, a, b)

    def div(self, a: Value, b: Value) -> Value:
        """True division.  Integer operands use the integer divider."""
        return self._binary(Opcode.DIV, Opcode.FDIV, a, b)

    def idiv(self, a: Value, b: Value) -> Value:
        """Integer (floor) division; operands must be integers."""
        if a.dtype != INT or b.dtype != INT:
            raise BuildError("idiv requires integer operands")
        dst = self.new_value(INT)
        self.emit(Instruction(Opcode.DIV, dst=dst.reg, srcs=(a.reg, b.reg)))
        return dst

    def rem(self, a: Value, b: Value) -> Value:
        if a.dtype != INT or b.dtype != INT:
            raise BuildError("rem requires integer operands")
        dst = self.new_value(INT)
        self.emit(Instruction(Opcode.REM, dst=dst.reg, srcs=(a.reg, b.reg)))
        return dst

    def neg(self, a: Value) -> Value:
        op = Opcode.NEG if a.dtype == INT else Opcode.FNEG
        dst = self.new_value(a.dtype)
        self.emit(Instruction(op, dst=dst.reg, srcs=(a.reg,)))
        return dst

    def abs(self, a: Value) -> Value:
        op = Opcode.ABS if a.dtype == INT else Opcode.FABS
        dst = self.new_value(a.dtype)
        self.emit(Instruction(op, dst=dst.reg, srcs=(a.reg,)))
        return dst

    def fma(self, a: Value, b: Value, c: Value) -> Value:
        """Fused multiply-add: ``a * b + c`` in one floating-point instruction."""
        a, b, c = self.to_float(a), self.to_float(b), self.to_float(c)
        dst = self.new_value(FLOAT)
        self.emit(Instruction(Opcode.FMA, dst=dst.reg, srcs=(a.reg, b.reg, c.reg)))
        return dst

    def minimum(self, a: Value, b: Value) -> Value:
        return self._binary(Opcode.MIN, Opcode.FMIN, a, b)

    def maximum(self, a: Value, b: Value) -> Value:
        return self._binary(Opcode.MAX, Opcode.FMAX, a, b)

    def sqrt(self, a: Value) -> Value:
        a = self.to_float(a)
        dst = self.new_value(FLOAT)
        self.emit(Instruction(Opcode.FSQRT, dst=dst.reg, srcs=(a.reg,)))
        return dst

    def exp(self, a: Value) -> Value:
        a = self.to_float(a)
        dst = self.new_value(FLOAT)
        self.emit(Instruction(Opcode.FEXP, dst=dst.reg, srcs=(a.reg,)))
        return dst

    def log(self, a: Value) -> Value:
        a = self.to_float(a)
        dst = self.new_value(FLOAT)
        self.emit(Instruction(Opcode.FLOG, dst=dst.reg, srcs=(a.reg,)))
        return dst

    def shl(self, a: Value, b: Value) -> Value:
        return self._binary(Opcode.SHL, None, a, b)

    def shr(self, a: Value, b: Value) -> Value:
        return self._binary(Opcode.SHR, None, a, b)

    # ------------------------------------------------------------------
    # comparisons (always produce a 0/1 integer value)
    # ------------------------------------------------------------------
    def lt(self, a: Value, b: Value) -> Value:
        return self._binary(Opcode.SLT, Opcode.FLT, a, b, result_dtype=INT)

    def le(self, a: Value, b: Value) -> Value:
        return self._binary(Opcode.SLE, Opcode.FLE, a, b, result_dtype=INT)

    def cmp_eq(self, a: Value, b: Value) -> Value:
        return self._binary(Opcode.SEQ, Opcode.FEQ, a, b, result_dtype=INT)

    def logical_and(self, a: Value, b: Value) -> Value:
        """Logical AND of two 0/1 integer values."""
        return self._binary(Opcode.AND, None, self.to_int(a), self.to_int(b))

    def select(self, cond: Value, when_true: Value, when_false: Value) -> Value:
        """Branch-free select: ``when_true`` where ``cond`` else ``when_false``.

        Implemented arithmetically (``f = false + cond * (true - false)``) so
        it costs no divergence.
        """
        cond_f = self.to_float(cond)
        t = self.to_float(when_true)
        f = self.to_float(when_false)
        diff = self.sub(t, f)
        return self.fma(cond_f, diff, f)

    # ------------------------------------------------------------------
    # data movement
    # ------------------------------------------------------------------
    def move(self, dst: Value, src: Value) -> None:
        """Copy ``src`` into ``dst``'s register (used for loop-carried values)."""
        src = self.to_float(src) if dst.dtype == FLOAT else self.to_int(src)
        self.emit(Instruction(Opcode.MOV, dst=dst.reg, srcs=(src.reg,)))

    def copy(self, src: Value) -> Value:
        """Return a fresh value holding a copy of ``src`` (a mutable accumulator)."""
        dst = self.new_value(src.dtype)
        self.emit(Instruction(Opcode.MOV, dst=dst.reg, srcs=(src.reg,)))
        return dst

    def load(self, base: Value, offset: Union[Value, Number] = 0, dtype: str = FLOAT) -> Value:
        """Load ``mem[base + offset]``; ``offset`` may be a constant immediate."""
        dst = self.new_value(dtype)
        if isinstance(offset, (int, float)) and float(offset).is_integer():
            self.emit(Instruction(Opcode.LOAD, dst=dst.reg, srcs=(base.reg,), imm=int(offset)))
        else:
            addr = self.add(self.to_int(base), self.to_int(self._as_value(offset)))
            self.emit(Instruction(Opcode.LOAD, dst=dst.reg, srcs=(addr.reg,), imm=0))
        return dst

    def store(self, value: Value, base: Value, offset: Union[Value, Number] = 0) -> None:
        """Store ``value`` into ``mem[base + offset]``."""
        if isinstance(offset, (int, float)) and float(offset).is_integer():
            self.emit(Instruction(Opcode.STORE, srcs=(value.reg, base.reg), imm=int(offset)))
        else:
            addr = self.add(self.to_int(base), self.to_int(self._as_value(offset)))
            self.emit(Instruction(Opcode.STORE, srcs=(value.reg, addr.reg), imm=0))

    def _as_value(self, value: Union[Value, Number]) -> Value:
        return value if isinstance(value, Value) else self.const(value)

    # ------------------------------------------------------------------
    # control flow
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def if_(self, cond: Value):
        """Execute the block only on lanes where ``cond`` is non-zero."""
        else_label = self.new_label("else")
        join_label = self.new_label("join")
        self.emit(Instruction(Opcode.SPLIT, srcs=(self.to_int(cond).reg,),
                              target=else_label, target2=join_label))
        self._push_region()
        try:
            yield
        finally:
            self._pop_region()
            self.emit(Instruction(Opcode.JOIN))
            self.place_label(else_label)
            self.emit(Instruction(Opcode.JOIN))
            self.place_label(join_label)

    def if_then_else(self, cond: Value,
                     then_fn: Callable[[], None],
                     else_fn: Optional[Callable[[], None]] = None) -> None:
        """Two-sided structured branch."""
        if else_fn is None:
            with self.if_(cond):
                then_fn()
            return
        else_label = self.new_label("else")
        join_label = self.new_label("join")
        self.emit(Instruction(Opcode.SPLIT, srcs=(self.to_int(cond).reg,),
                              target=else_label, target2=join_label))
        self._push_region()
        then_fn()
        self._pop_region()
        self.emit(Instruction(Opcode.JOIN))
        self.place_label(else_label)
        self._push_region()
        else_fn()
        self._pop_region()
        self.emit(Instruction(Opcode.JOIN))
        self.place_label(join_label)

    @contextlib.contextmanager
    def for_range(self, count: Union[Value, int], guard: bool = True):
        """Counted loop yielding the iteration index as an integer value.

        With ``guard=True`` (the default) a zero trip count skips the body;
        with ``guard=False`` the body executes at least once (cheaper when the
        caller knows the count is positive).
        """
        count_v = self._as_value(count)
        if count_v.dtype != INT:
            raise BuildError("for_range requires an integer trip count")
        index = self.new_value(INT)
        self.emit(Instruction(Opcode.LI, dst=index.reg, imm=0, comment="loop index"))
        if guard:
            zero = self.const(0)
            positive = self.lt(zero, count_v)
            split_else = self.new_label("skip")
            split_join = self.new_label("done")
            self.emit(Instruction(Opcode.SPLIT, srcs=(positive.reg,),
                                  target=split_else, target2=split_join))
        body_label = self.new_label("loop")
        self.emit(Instruction(Opcode.LOOP_BEGIN))
        self.place_label(body_label)
        self._push_region()
        try:
            yield index
        finally:
            one = self.const(1)
            self.emit(Instruction(Opcode.ADD, dst=index.reg, srcs=(index.reg, one.reg),
                                  comment="loop increment"))
            again = self.lt(index, count_v)
            self._pop_region()
            self.emit(Instruction(Opcode.LOOP_END, srcs=(again.reg,), target=body_label))
            if guard:
                self.emit(Instruction(Opcode.JOIN))
                self.place_label(split_else)
                self.emit(Instruction(Opcode.JOIN))
                self.place_label(split_join)

    def barrier(self) -> None:
        """Synchronise all warps of the core (Vortex ``bar`` instruction)."""
        self.emit(Instruction(Opcode.BAR))

    def halt(self) -> None:
        """Terminate the warp."""
        self.emit(Instruction(Opcode.HALT))

    def nop(self) -> None:
        """Emit a no-op (useful to pad sections in tests)."""
        self.emit(Instruction(Opcode.NOP))

    # ------------------------------------------------------------------
    # linking
    # ------------------------------------------------------------------
    def link(self, metadata: Optional[Dict[str, object]] = None) -> Program:
        """Resolve labels and return an executable :class:`Program`."""
        for label, pc in self._labels.items():
            if pc > len(self._instructions):
                raise BuildError(f"label {label!r} placed beyond the last instruction")
        # A label placed after the final instruction must land on something
        # executable; append a trailing HALT if needed.
        if any(pc == len(self._instructions) for pc in self._labels.values()):
            self.halt()
        return Program.link(
            name=self.name,
            instructions=self._instructions,
            labels=self._labels,
            num_registers=self._next_register,
            metadata=metadata,
        )
