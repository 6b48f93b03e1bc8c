"""Executable programs.

A :class:`Program` is the linked form of a kernel: a flat instruction list in
which every control-flow target has been resolved from a label string to an
integer program-counter index.  Programs also carry the number of virtual
registers they use and a map from program counter to semantic section tag
(used by the tracer to reproduce the paper's Figure-1 annotations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode


class ProgramError(ValueError):
    """Raised when a program is malformed (unknown label, missing HALT, ...)."""


@dataclass(frozen=True)
class Program:
    """A linked, executable instruction sequence.

    Instances are immutable; use :meth:`link` (or the kernel builder) to
    create them.
    """

    name: str
    instructions: Tuple[Instruction, ...]
    num_registers: int
    labels: Mapping[str, int] = field(default_factory=dict)
    metadata: Mapping[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ API
    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, pc: int) -> Instruction:
        return self.instructions[pc]

    def __iter__(self):
        return iter(self.instructions)

    @property
    def sections(self) -> Tuple[str, ...]:
        """Section tag of every instruction, indexed by program counter."""
        return tuple(instr.section for instr in self.instructions)

    def disassemble(self) -> str:
        """Multi-line human readable listing with PC, section and labels."""
        label_at: Dict[int, List[str]] = {}
        for label, pc in self.labels.items():
            label_at.setdefault(pc, []).append(label)
        lines: List[str] = [f"; program {self.name}: {len(self.instructions)} instructions,"
                            f" {self.num_registers} registers"]
        for pc, instr in enumerate(self.instructions):
            for label in label_at.get(pc, []):
                lines.append(f"{label}:")
            lines.append(f"  {pc:4d}  [{instr.section:<8s}] {instr.disassemble()}")
        return "\n".join(lines)

    # ------------------------------------------------------------ construction
    @classmethod
    def link(
        cls,
        name: str,
        instructions: Sequence[Instruction],
        labels: Mapping[str, int],
        num_registers: int,
        metadata: Optional[Mapping[str, object]] = None,
    ) -> "Program":
        """Resolve label targets and validate the result.

        Raises :class:`ProgramError` on unknown labels, out-of-range register
        indices or a program that cannot terminate (no ``HALT``).
        """
        resolved: List[Instruction] = []
        for pc, instr in enumerate(instructions):
            target = _resolve(instr.target, labels, pc, instr)
            target2 = _resolve(instr.target2, labels, pc, instr)
            resolved.append(instr.with_targets(target, target2))
        program = cls(
            name=name,
            instructions=tuple(resolved),
            num_registers=num_registers,
            labels=dict(labels),
            metadata=dict(metadata or {}),
        )
        program.validate()
        return program

    def validate(self) -> None:
        """Check structural invariants; raise :class:`ProgramError` otherwise."""
        if not self.instructions:
            raise ProgramError(f"program {self.name!r} is empty")
        if not any(i.opcode is Opcode.HALT for i in self.instructions):
            raise ProgramError(f"program {self.name!r} has no HALT instruction")
        n = len(self.instructions)
        for pc, instr in enumerate(self.instructions):
            for reg in (*instr.srcs, *((instr.dst,) if instr.dst is not None else ())):
                if not (0 <= reg < self.num_registers):
                    raise ProgramError(
                        f"{self.name}@{pc}: register r{reg} out of range "
                        f"(program declares {self.num_registers})"
                    )
            for tgt in (instr.target, instr.target2):
                if tgt is None:
                    continue
                if not isinstance(tgt, int):
                    raise ProgramError(f"{self.name}@{pc}: unresolved label {tgt!r}")
                if not (0 <= tgt < n):
                    raise ProgramError(f"{self.name}@{pc}: branch target {tgt} out of range")
            if instr.opcode is Opcode.SPLIT and (instr.target is None or instr.target2 is None):
                raise ProgramError(f"{self.name}@{pc}: SPLIT needs else and join targets")
            if instr.opcode in (Opcode.JMP, Opcode.LOOP_END) and instr.target is None:
                raise ProgramError(f"{self.name}@{pc}: {instr.opcode.name} needs a target")


def _resolve(target, labels: Mapping[str, int], pc: int, instr: Instruction):
    if target is None or isinstance(target, int):
        return target
    if target not in labels:
        raise ProgramError(f"@{pc} {instr.opcode.name}: unknown label {target!r}")
    return labels[target]
