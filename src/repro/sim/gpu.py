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
engine compiles each (program, config) once and streams whole rounds of warps
per core as single 2-D numpy operations (:mod:`repro.sim.batchcore`).  All
three produce bit-identical cycles, counters and memory contents -- the
differential test suite holds them to that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

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
        # program id -> (program, compiled) kept by the batch engine so a
        # program is compiled once per launch instead of once per core per
        # call (the program reference pins the id against reuse).  The fast
        # engine's decode is memoised per process by ``decode_program``.
        self._decode_cache: Dict[int, tuple] = {}

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
        # enabled check, never touching the cycle arithmetic, so both engines
        # stay bit-identical with telemetry on or off.
        if not RECORDER.enabled:
            cores = self._build_cores(program, launches, counters)
            active_cores: List[SimtCore] = list(cores.values())
            if self.engine == "fast":
                cycle = self._run_fast(active_cores, counters, max_cycles)
            elif self.engine == "batch":
                cycle = self._run_batch(active_cores, counters, max_cycles)
            else:
                cycle = self._run_reference(active_cores, counters, max_cycles)
            counters.cycles = cycle
            counters.warps_launched = len(launches)
            self._fold_memory_statistics(counters)
            return CallResult(cycles=cycle, counters=counters)

        t0 = time.perf_counter()
        cores = self._build_cores(program, launches, counters)
        active_cores = list(cores.values())
        t1 = time.perf_counter()
        if self.engine == "fast":
            cycle = self._run_fast(active_cores, counters, max_cycles)
        elif self.engine == "batch":
            cycle = self._run_batch(active_cores, counters, max_cycles)
        else:
            cycle = self._run_reference(active_cores, counters, max_cycles)
        t2 = time.perf_counter()
        counters.cycles = cycle
        counters.warps_launched = len(launches)
        self._fold_memory_statistics(counters)
        t3 = time.perf_counter()
        prefix = f"engine.{self.engine}"
        RECORDER.observe(f"{prefix}.build_cores_seconds", t1 - t0)
        RECORDER.observe(f"{prefix}.issue_loop_seconds", t2 - t1)
        RECORDER.observe(f"{prefix}.fold_stats_seconds", t3 - t2)
        RECORDER.count(f"{prefix}.calls")
        RECORDER.count(f"{prefix}.cycles", cycle)
        return CallResult(cycles=cycle, counters=counters)

    def _run_reference(self, active_cores: List[SimtCore], counters: PerfCounters,
                       max_cycles: Optional[int]) -> int:
        """The straight-line reference loop: scan every busy core every cycle."""
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

    def _run_fast(self, active_cores: List[SimtCore], counters: PerfCounters,
                  max_cycles: Optional[int]) -> int:
        """Event-skipping loop used by the ``fast`` engine.

        Identical cycle arithmetic to :meth:`_run_reference` -- same visited
        cycles, same issue order, same stall accounting -- but a core whose
        cached ``next_event_hint`` lies in the future is charged its stall
        without being re-scanned, and the per-core issue attempt is inlined
        into the loop.  Lives in :func:`repro.sim.fastcore.run_fast` with the
        rest of the fast engine.
        """
        from repro.sim.fastcore import run_fast

        return run_fast(active_cores, counters, max_cycles, self.tracer)

    def _run_batch(self, active_cores: List[SimtCore], counters: PerfCounters,
                   max_cycles: Optional[int]) -> int:
        """Streaming loop used by the ``batch`` engine.

        Commits whole rounds of warps per core where a vectorized guard proves
        the exact reference schedule, and falls back to the fast engine's
        visited-cycle body everywhere else.  Lives in
        :func:`repro.sim.batchcore.run_batch`.
        """
        from repro.sim.batchcore import run_batch

        return run_batch(active_cores, counters, max_cycles, self.tracer)

    # ------------------------------------------------------------------ helpers
    def _build_cores(self, program: Program, launches: Sequence[WarpLaunch],
                     counters: PerfCounters) -> Dict[int, SimtCore]:
        from repro.sim.warp import FastWarp, Warp  # local import to avoid a cycle in docs builds

        decoded = None
        compiled = None
        if self.engine == "fast":
            from repro.sim.fastcore import FastSimtCore, decode_program
            core_cls, warp_cls = FastSimtCore, FastWarp
            decoded = decode_program(program, self.config)   # memoised per process
        elif self.engine == "batch":
            from repro.sim.batchcore import BatchSimtCore
            from repro.sim.compile import compile_program
            core_cls, warp_cls = BatchSimtCore, FastWarp
            cached = self._decode_cache.get(id(program))
            if cached is None or cached[0] is not program:
                if len(self._decode_cache) > 8:
                    self._decode_cache.clear()
                if RECORDER.enabled:
                    t0 = time.perf_counter()
                    cached = (program, compile_program(program, self.config))
                    RECORDER.observe("engine.batch.compile_seconds",
                                     time.perf_counter() - t0)
                    RECORDER.count("engine.batch.compiles")
                else:
                    cached = (program, compile_program(program, self.config))
                self._decode_cache[id(program)] = cached
            compiled = cached[1]
        else:
            core_cls, warp_cls = SimtCore, Warp

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
                if compiled is not None:
                    core = core_cls(launch.core_id, self.config, program,
                                    self.hierarchy, self.memory, counters,
                                    tracer=self.tracer, compiled=compiled)
                elif decoded is not None:
                    core = core_cls(launch.core_id, self.config, program,
                                    self.hierarchy, self.memory, counters,
                                    tracer=self.tracer, decoded=decoded)
                else:
                    core = core_cls(launch.core_id, self.config, program,
                                    self.hierarchy, self.memory, counters,
                                    tracer=self.tracer)
                cores[launch.core_id] = core
            warp = warp_cls(
                warp_id=launch.warp_id,
                lane_count=self.config.threads_per_warp,
                num_registers=program.num_registers,
                csr=launch.csr,
                active_lanes=launch.active_lanes,
            )
            core.add_warp(warp)
        return cores

    def _fold_memory_statistics(self, counters: PerfCounters) -> None:
        """Pick up cache/DRAM statistics accumulated since the last snapshot."""
        stats = self.hierarchy.statistics()
        counters.l1_hits = stats["l1_hits"]
        counters.l1_misses = stats["l1_misses"]
        counters.l2_hits = stats["l2_hits"]
        counters.l2_misses = stats["l2_misses"]
        # dram_lines / queue cycles are already folded in per access by the core;
        # keep the hierarchy's view as the authoritative one for lines.
        counters.dram_lines = stats["dram_lines"]
        counters.dram_queue_cycles = stats["dram_queue_cycles"]
        # Statistics are cumulative inside the hierarchy; reset so the next call
        # of the same launch reports only its own accesses.
        for cache in self.hierarchy.l1:
            cache.reset_statistics()
        self.hierarchy.l2.reset_statistics()
        self.hierarchy.dram.lines_transferred = 0
        self.hierarchy.dram.total_queue_cycles = 0
