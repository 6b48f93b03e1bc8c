"""Per-opcode timing model.

The cycle-level simulator charges every issued instruction an execution
latency (cycles until its result is available for dependent instructions) and
an initiation interval (cycles before the owning functional unit can accept
another instruction).  The defaults below follow the latencies of simple
in-order GPU cores such as Vortex: single-cycle integer ALU, short pipelined
floating point, long unpipelined divides/square roots, and memory operations
whose latency is decided by the cache hierarchy rather than this table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.isa.opcodes import OPS, OpClass, Opcode


class FunctionalUnit(enum.Enum):
    """Execution resources an instruction can occupy."""

    ALU = "alu"
    FPU = "fpu"
    SFU = "sfu"
    LSU = "lsu"
    CONTROL = "control"


@dataclass(frozen=True)
class OpTiming:
    """Timing of one opcode.

    ``latency`` is the number of cycles from issue to writeback;
    ``initiation_interval`` is the number of cycles the functional unit stays
    busy (1 for fully pipelined units).  Memory operations carry a latency of
    ``None``: the memory hierarchy supplies it per access.
    """

    unit: FunctionalUnit
    latency: Optional[int]
    initiation_interval: int = 1


_CLASS_UNIT: Dict[OpClass, FunctionalUnit] = {
    OpClass.INT_ALU: FunctionalUnit.ALU,
    OpClass.INT_MUL: FunctionalUnit.ALU,
    OpClass.FLOAT: FunctionalUnit.FPU,
    OpClass.SFU: FunctionalUnit.SFU,
    OpClass.MEMORY: FunctionalUnit.LSU,
    OpClass.CONTROL: FunctionalUnit.CONTROL,
    OpClass.SIMT: FunctionalUnit.CONTROL,
    OpClass.PSEUDO: FunctionalUnit.CONTROL,
}


def _default_table() -> Dict[Opcode, OpTiming]:
    table: Dict[Opcode, OpTiming] = {}
    for opcode in Opcode:
        cls = OPS[opcode].cls
        unit = _CLASS_UNIT[cls]
        if cls is OpClass.INT_ALU:
            timing = OpTiming(unit, latency=1)
        elif cls is OpClass.INT_MUL:
            timing = OpTiming(unit, latency=3)
        elif cls is OpClass.FLOAT:
            timing = OpTiming(unit, latency=4)
        elif cls is OpClass.SFU:
            timing = OpTiming(unit, latency=16, initiation_interval=8)
        elif cls is OpClass.MEMORY:
            timing = OpTiming(unit, latency=None)
        else:  # control / SIMT / pseudo
            timing = OpTiming(unit, latency=1)
        table[opcode] = timing
    # A few refinements over the class defaults.
    table[Opcode.FMA] = OpTiming(FunctionalUnit.FPU, latency=4)
    table[Opcode.FDIV] = OpTiming(FunctionalUnit.SFU, latency=24, initiation_interval=12)
    table[Opcode.FSQRT] = OpTiming(FunctionalUnit.SFU, latency=24, initiation_interval=12)
    table[Opcode.FEXP] = OpTiming(FunctionalUnit.SFU, latency=20, initiation_interval=10)
    table[Opcode.FLOG] = OpTiming(FunctionalUnit.SFU, latency=20, initiation_interval=10)
    table[Opcode.BAR] = OpTiming(FunctionalUnit.CONTROL, latency=1)
    return table


#: Default per-opcode timing used by :class:`repro.sim.config.ArchConfig`.
DEFAULT_LATENCIES: Mapping[Opcode, OpTiming] = _default_table()


def timing_for(opcode: Opcode, overrides: Optional[Mapping[Opcode, OpTiming]] = None) -> OpTiming:
    """Return the :class:`OpTiming` for ``opcode``.

    ``overrides`` takes precedence over :data:`DEFAULT_LATENCIES`, letting an
    :class:`~repro.sim.config.ArchConfig` customise individual opcodes without
    replacing the whole table.
    """
    if overrides and opcode in overrides:
        return overrides[opcode]
    return DEFAULT_LATENCIES[opcode]
