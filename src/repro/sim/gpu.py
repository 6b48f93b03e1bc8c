"""Top-level device model.

A :class:`Gpu` owns the backing memory, the shared memory hierarchy and the
per-call core instances.  :meth:`Gpu.run_call` executes *one kernel call*: the
dispatcher has already decided which warps run on which cores and with which
CSR contents (see :mod:`repro.runtime.dispatcher`); the GPU simply simulates
all cores cycle by cycle until every warp has halted.

The main loop is event-accelerated: whenever no core can issue in a cycle the
clock jumps directly to the earliest cycle at which any core may issue again
(pending register writebacks, functional-unit availability), so configurations
with long memory stalls or mostly-idle machines simulate quickly without
changing the cycle arithmetic.

Three interchangeable engines drive the loop (see :mod:`repro.sim.engine`):
the ``reference`` engine re-scans every busy core every cycle, the ``fast``
engine additionally caches each stalled core's ``next_event_hint`` and runs
lane execution vectorised (:mod:`repro.sim.fastcore`), and the ``batch``
engine runs inside the fast loop, compiling each program once per process and
streaming whole rounds of warps per core as single 2-D numpy operations
(:mod:`repro.sim.batchcore`).  All three produce bit-identical cycles,
counters and memory contents -- the differential test suite holds them to
that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.isa.program import Program
from repro.isa.registers import CsrFile
from repro.sim.config import ArchConfig
from repro.sim.core import NEVER, SimtCore, SimulationError
from repro.sim.engine import resolve_engine
from repro.sim.memory.hierarchy import MemoryHierarchy
from repro.sim.memory.mainmem import MainMemory
from repro.sim.stats import PerfCounters
from repro.telemetry.recorder import RECORDER

#: Default device memory size (words).  Large enough for every paper workload
#: at full scale; the runtime's allocator raises a clear error if exceeded.
DEFAULT_MEMORY_WORDS = 1 << 22


@dataclass(frozen=True)
class WarpLaunch:
    """One warp's placement and initial CSR state for a kernel call."""

    core_id: int
    warp_id: int
    csr: CsrFile
    active_lanes: int


@dataclass
class CallResult:
    """Result of simulating one kernel call."""

    cycles: int
    counters: PerfCounters = field(default_factory=PerfCounters)


class Gpu:
    """A simulated Vortex-like GPGPU device."""

    def __init__(self, config: ArchConfig, memory_words: int = DEFAULT_MEMORY_WORDS,
                 tracer=None, engine: Optional[str] = None):
        self.config = config
        self.memory = MainMemory(memory_words)
        self.hierarchy = MemoryHierarchy(config)
        self.tracer = tracer
        self.engine = resolve_engine(engine)

    # ------------------------------------------------------------------
    def reset_memory_system(self) -> None:
        """Invalidate caches and DRAM queue state (called between launches)."""
        self.hierarchy.invalidate()

    def run_call(self, program: Program, launches: Sequence[WarpLaunch],
                 max_cycles: Optional[int] = None) -> CallResult:
        """Simulate one kernel call to completion and return its cycle count.

        ``launches`` describes every warp taking part in the call.  Cores that
        receive no warp are idle and cost nothing.  ``max_cycles`` guards
        against runaway kernels (raises :class:`SimulationError` when hit).
        """
        if not launches:
            return CallResult(cycles=0)
        counters = PerfCounters()
        # Each call starts its own DRAM queue (time restarts at zero per call);
        # cache contents persist across the calls of one launch on purpose.
        self.hierarchy.dram.reset()
        # Phase timers are pure observers -- wall-clock reads behind a single
        # enabled check, never touching the cycle arithmetic, so every engine
        # stays bit-identical with telemetry on or off.
        timed = RECORDER.enabled
        t0 = time.perf_counter() if timed else 0.0
        cores, run_loop = self._build_cores(program, launches, counters)
        t1 = time.perf_counter() if timed else 0.0
        cycle = run_loop(cores, counters, max_cycles, self.tracer)
        t2 = time.perf_counter() if timed else 0.0
        counters.cycles = cycle
        counters.warps_launched = len(launches)
        self._fold_memory_statistics(counters)
        if timed:
            prefix = f"engine.{self.engine}"
            RECORDER.observe(f"{prefix}.build_cores_seconds", t1 - t0)
            RECORDER.observe(f"{prefix}.issue_loop_seconds", t2 - t1)
            RECORDER.observe(f"{prefix}.fold_stats_seconds",
                             time.perf_counter() - t2)
            RECORDER.count(f"{prefix}.calls")
            RECORDER.count(f"{prefix}.cycles", cycle)
        return CallResult(cycles=cycle, counters=counters)

    # ------------------------------------------------------------------ helpers
    def _build_cores(self, program: Program, launches: Sequence[WarpLaunch],
                     counters: PerfCounters) -> Tuple[List[SimtCore], Callable]:
        """The call's cores, and the issue loop of the engine that runs them."""
        from repro.sim.warp import FastWarp, Warp  # local import to avoid a cycle in docs builds

        if self.engine == "fast":
            from repro.sim.fastcore import FastSimtCore, decode_program, run_fast
            core_cls, warp_cls, run_loop = FastSimtCore, FastWarp, run_fast
            prepared = {"decoded": decode_program(program, self.config)}
        elif self.engine == "batch":
            from repro.sim.batchcore import BatchSimtCore, compiled_program, run_batch
            core_cls, warp_cls, run_loop = BatchSimtCore, FastWarp, run_batch
            prepared = {"compiled": compiled_program(program, self.config)}
        else:
            core_cls, warp_cls, run_loop = SimtCore, Warp, _run_reference
            prepared = {}

        cores: Dict[int, SimtCore] = {}
        for launch in launches:
            if not (0 <= launch.core_id < self.config.cores):
                raise SimulationError(
                    f"launch targets core {launch.core_id} but the device has "
                    f"{self.config.cores} cores"
                )
            if not (0 <= launch.warp_id < self.config.warps_per_core):
                raise SimulationError(
                    f"launch targets warp {launch.warp_id} but cores have "
                    f"{self.config.warps_per_core} warps"
                )
            core = cores.get(launch.core_id)
            if core is None:
                core = core_cls(launch.core_id, self.config, program,
                                self.hierarchy, self.memory, counters,
                                tracer=self.tracer, **prepared)
                cores[launch.core_id] = core
            warp = warp_cls(
                warp_id=launch.warp_id,
                lane_count=self.config.threads_per_warp,
                num_registers=program.num_registers,
                csr=launch.csr,
                active_lanes=launch.active_lanes,
            )
            core.add_warp(warp)
        return list(cores.values()), run_loop

    def _fold_memory_statistics(self, counters: PerfCounters) -> None:
        """Drain the hierarchy's cache/DRAM totals into ``counters``.

        The hierarchy is the one source for every level, and draining leaves
        the next call of the same launch only its own accesses.
        """
        for name, value in self.hierarchy.statistics().items():
            setattr(counters, name, value)


def _run_reference(active_cores: List[SimtCore], counters: PerfCounters,
                   max_cycles: Optional[int], tracer) -> int:
    """The straight-line reference loop: scan every busy core every cycle.

    ``tracer`` is unused: reference cores record through their own.
    """
    cycle = 0
    while True:
        busy_cores = [core for core in active_cores if core.busy]
        if not busy_cores:
            break
        if max_cycles is not None and cycle > max_cycles:
            raise SimulationError(
                f"kernel call exceeded max_cycles={max_cycles} "
                f"({len(busy_cores)} cores still busy)"
            )
        issued_any = False
        next_hint = NEVER
        for core in busy_cores:
            if core.try_issue(cycle):
                issued_any = True
                counters.issue_cycles += 1
            else:
                counters.stall_cycles += 1
                if core.next_event_hint < next_hint:
                    next_hint = core.next_event_hint
        if issued_any:
            counters.active_cycles += 1
            cycle += 1
        else:
            if next_hint is NEVER or next_hint <= cycle:
                # No progress is possible and no future event is pending:
                # this indicates a deadlock (e.g. a barrier never released).
                raise SimulationError(
                    f"simulation deadlock at cycle {cycle}: no core can make progress"
                )
            cycle = int(next_hint)
    return cycle
