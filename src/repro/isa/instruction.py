"""Instruction representation.

An :class:`Instruction` is a fully decoded operation: opcode, destination
register, source registers, an optional immediate, an optional control-flow
target (label name before linking, program-counter index afterwards) and a
semantic *section* tag.  Section tags are the mechanism the paper's Figure 1
uses to annotate traces ("init", "index", "body", "loop", ...): every issued
instruction carries its section so the trace analyser can reconstruct the
wavefront plots without re-parsing the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.isa.opcodes import OPS, Opcode


@dataclass(frozen=True)
class Instruction:
    """A single SIMT instruction.

    Parameters
    ----------
    opcode:
        The operation to perform.
    dst:
        Destination register index, or ``None`` for instructions without a
        register result (stores, branches, barriers...).
    srcs:
        Source register indices, in operand order.
    imm:
        Optional immediate operand.  For :data:`Opcode.LI` it is the value to
        load; for memory operations it is the word offset added to the address
        register; for :data:`Opcode.CSRR` it is the CSR number; for
        :data:`Opcode.TMC` it is the number of lanes to keep active.
    target:
        Control-flow target.  Before linking this is a label string; the
        :class:`~repro.isa.program.Program` linker rewrites it to an integer
        program-counter index.
    target2:
        Secondary control-flow target used by :data:`Opcode.SPLIT` (the join
        point; ``target`` is the else/exit point).
    section:
        Semantic section tag used by the tracer (e.g. ``"body"``).
    comment:
        Free-form annotation kept only for disassembly readability.
    """

    opcode: Opcode
    dst: Optional[int] = None
    srcs: Tuple[int, ...] = ()
    imm: Optional[float] = None
    target: Optional[object] = None
    target2: Optional[object] = None
    section: str = "body"
    comment: str = ""

    def __post_init__(self) -> None:
        spec = OPS[self.opcode]
        if self.dst is None and spec.writes:
            raise ValueError(f"{self.opcode.name} requires a destination register")
        if self.dst is not None and not spec.writes:
            raise ValueError(f"{self.opcode.name} does not write a register (dst={self.dst})")
        if len(self.srcs) != spec.srcs:
            raise ValueError(f"{self.opcode.name} takes {spec.srcs} source register(s), "
                             f"got {len(self.srcs)}")

    @property
    def op_class(self):
        """The :class:`~repro.isa.opcodes.OpClass` this instruction belongs to."""
        return OPS[self.opcode].cls

    def with_section(self, section: str) -> "Instruction":
        """Return a copy tagged with ``section``."""
        return replace(self, section=section)

    def with_targets(self, target: Optional[int], target2: Optional[int]) -> "Instruction":
        """Return a copy with resolved (integer) control-flow targets."""
        return replace(self, target=target, target2=target2)

    def reads(self) -> Tuple[int, ...]:
        """Registers read by this instruction."""
        return self.srcs

    def writes(self) -> Tuple[int, ...]:
        """Registers written by this instruction (empty or a single register)."""
        return (self.dst,) if self.dst is not None else ()

    def disassemble(self) -> str:
        """Human readable rendering, e.g. ``fma r5, r1, r2, r5``."""
        parts = [self.opcode.value]
        operands = []
        if self.dst is not None:
            operands.append(f"r{self.dst}")
        operands.extend(f"r{s}" for s in self.srcs)
        if self.imm is not None:
            operands.append(_format_imm(self.imm))
        if self.target is not None:
            operands.append(f"@{self.target}")
        if self.target2 is not None:
            operands.append(f"@{self.target2}")
        text = parts[0]
        if operands:
            text += " " + ", ".join(operands)
        if self.comment:
            text += f"    ; {self.comment}"
        return text

    def __str__(self) -> str:  # pragma: no cover - convenience only
        return self.disassemble()


def _format_imm(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:g}"
