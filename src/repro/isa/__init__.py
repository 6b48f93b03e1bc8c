"""SIMT instruction set used by the Vortex-like GPGPU simulator.

The ISA is a small RISC-V-flavoured scalar instruction set extended with the
SIMT control instructions the Vortex GPGPU exposes (thread-mask manipulation
through structured split/join, warp barriers and CSR reads for the
core/warp/thread identifiers the runtime publishes to kernels).

The public surface is:

* :class:`~repro.isa.opcodes.Opcode` -- every instruction kind, and
  :data:`~repro.isa.opcodes.OPS` -- its class, arity and semantics, the one
  definition all three simulation engines derive their handlers from.
* :class:`~repro.isa.instruction.Instruction` -- a single decoded instruction.
* :class:`~repro.isa.program.Program` -- an executable program (instruction
  list + resolved labels + register count + section map).
* :class:`~repro.isa.registers.Csr` -- the control/status registers a kernel
  may read at runtime (hardware shape, workgroup assignment, sizes).
* :data:`~repro.isa.latencies.DEFAULT_LATENCIES` -- per-opcode timing used by
  the cycle-level simulator.
"""

from repro.isa.instruction import Instruction
from repro.isa.latencies import DEFAULT_LATENCIES, FunctionalUnit, OpTiming, timing_for
from repro.isa.opcodes import OPS, Opcode, OpClass
from repro.isa.program import Program, ProgramError
from repro.isa.registers import Csr

__all__ = [
    "Csr",
    "DEFAULT_LATENCIES",
    "FunctionalUnit",
    "Instruction",
    "OPS",
    "OpClass",
    "Opcode",
    "OpTiming",
    "Program",
    "ProgramError",
    "timing_for",
]
