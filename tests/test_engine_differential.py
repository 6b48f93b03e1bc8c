"""Differential test layer: ``fast`` and ``batch`` against the reference oracle.

The accelerated engines (:mod:`repro.sim.fastcore` with the event-skipping
loop, and :mod:`repro.sim.batchcore` with cross-warp streaming on top of it)
promise **bit-identical** results to the reference engine -- not
statistically close, not within a tolerance: identical.  This suite holds
every engine in :data:`repro.sim.engine.ENGINES` to that across every
library kernel:

* every workload x several machine shapes x every engine: identical cycles,
  identical output buffers (``np.array_equal``, so NaNs and signed zeros
  would fail), and every single :class:`~repro.sim.stats.PerfCounters` field;
* identical *issue traces*: event skipping may jump the clock and batch
  streaming may commit whole uniform rounds at once, but neither may reorder
  or retime a single instruction issue;
* the same matrix on the narrow-warp shapes of the paper's Figure-2 grid
  under forced ``lws`` 1 and 32 and the runtime mapping (most of a sweep's
  warp-instructions run with one or two active lanes);
* the divergence-stress fixtures (``tests/engine_fixtures.py``) run the same
  grid, hammering the batch engine's fallback transitions;
* the barrier fixture -- the only program under the oracle that issues
  ``BAR`` -- runs on every shape under both schedulers and four mappings;
* the functional-unit contention fixture keeps warps waiting on a held SFU
  or LSU, under both schedulers, and a guard list pins that a unit's
  busy-until only moves forward (the fast loop's readiness bound needs it);
* identical campaign content hashes: the engine is a presentation/performance
  concern, so a result cached under one engine must be served under the other.

Random-program coverage on top of this fixed grid lives in
``tests/test_engine_fuzz.py``.
"""

import dataclasses

import numpy as np
import pytest

from engine_fixtures import (assert_engines_identical, make_barrier_kernel,
                             make_branch_storm_kernel, make_fu_contention_kernel,
                             make_strided_gather_kernel, run_engines, stress_arguments)
from repro.campaign.spec import JobSpec
from repro.runtime.device import Device
from repro.runtime.launcher import launch_kernel
from repro.sim.config import ArchConfig
from repro.sim.core import SimtCore
from repro.sim.engine import DEFAULT_ENGINE, ENGINES, EngineError, resolve_engine
from repro.sim.fastcore import FastSimtCore
from repro.trace.tracer import Tracer
from repro.workloads.problems import available_problems, make_problem

#: Machine shapes the differential grid runs on: the paper's Figure-1 machine,
#: a multi-core mid-size shape, and a wide-warp shape (16 lanes exercises
#: partial warps and divergent selections differently than 4 or 8).
CONFIG_NAMES = ("1c2w4t", "4c4w8t", "2c8w16t")

#: Shapes of the paper's Figure-2 grid where warps run narrow: 2 threads per
#: warp, and a 32-lane warp that a forced lws fills with one or two lanes.
NARROW_CONFIG_NAMES = ("1c8w2t", "4c8w2t", "4c8w32t")

ALL_PROBLEMS = tuple(available_problems())


def run_problem(problem_name, config_name, engine, tracer=None, local_size=None):
    """One smoke-scale launch of ``problem_name`` under ``engine``."""
    problem = make_problem(problem_name, scale="smoke", seed=0)
    device = Device(ArchConfig.from_name(config_name), tracer=tracer, engine=engine)
    return launch_kernel(device, problem.kernel, problem.arguments,
                         problem.global_size, local_size=local_size)


# ----------------------------------------------------------------------
# the 9-kernel x 3-config grid
# ----------------------------------------------------------------------
def test_grid_covers_all_library_kernels():
    """The differential grid below runs every library workload (9 of them)."""
    assert len(ALL_PROBLEMS) == 9


def assert_problem_bit_identical(problem_name, config_name, local_size=None):
    """One problem on one machine shape under every engine."""
    results = {engine: run_problem(problem_name, config_name, engine,
                                   local_size=local_size)
               for engine in ENGINES}
    assert_engines_identical(
        results, f"{problem_name}/{config_name}/lws={local_size}")


@pytest.mark.parametrize("config_name", CONFIG_NAMES)
@pytest.mark.parametrize("problem_name", ALL_PROBLEMS)
def test_engines_bit_identical(problem_name, config_name):
    """The full 9-kernel x 3-shape x 3-engine matrix."""
    assert_problem_bit_identical(problem_name, config_name)


@pytest.mark.parametrize("local_size", [1, 32, None], ids=["lws1", "lws32", "runtime"])
@pytest.mark.parametrize("config_name", NARROW_CONFIG_NAMES)
@pytest.mark.parametrize("problem_name", ALL_PROBLEMS)
def test_engines_bit_identical_on_narrow_traffic(problem_name, config_name, local_size):
    """The Figure-2 grid's own traffic: 2-lane machines, and the lws=1 /
    lws=32 strawmen that leave one or two lanes of a warp active."""
    assert_problem_bit_identical(problem_name, config_name, local_size)


@pytest.mark.parametrize("problem_name", ["vecadd", "sgemm", "gaussian"])
def test_event_skipping_preserves_issue_order(problem_name):
    """Neither the fast loop's clock jumps nor the batch engine's streamed
    rounds may reorder a single issue.

    Compared as full event tuples: cycle, core, warp, pc, opcode, mask and
    call index of every instruction issue, in issue order.
    """
    traces = {}
    for engine in ENGINES:
        tracer = Tracer(max_events=500_000)
        run_problem(problem_name, "4c4w8t", engine, tracer=tracer)
        assert not tracer.truncated
        traces[engine] = [dataclasses.astuple(event) for event in tracer.events]
    for engine in ENGINES:
        assert traces[engine] == traces["reference"], (
            f"{problem_name}: {engine} issue trace diverged")


@pytest.mark.parametrize("local_size", [1, 3, 8, 64])
def test_engines_agree_on_forced_local_sizes(local_size):
    """Partial warps and many sequential calls (lws=1, lws=3) are covered too."""
    results = {engine: run_problem("vecadd", "1c2w4t", engine,
                                   local_size=local_size)
               for engine in ENGINES}
    reference = results["reference"]
    for engine in ENGINES:
        result = results[engine]
        assert result.cycles == reference.cycles, engine
        assert result.counters.as_dict() == reference.counters.as_dict(), engine
        assert np.array_equal(result.outputs["c"], reference.outputs["c"]), engine


@pytest.mark.parametrize("problem_name", ["vecadd", "sgemm", "gaussian"])
def test_engines_agree_under_gto_scheduler(problem_name):
    """The non-round-robin issue path (priority order rebuilt per attempt)
    must be equivalent too, not just the pre-filtered rr rotation tables."""
    config = ArchConfig(cores=2, warps_per_core=4, threads_per_warp=8,
                        warp_scheduler="gto")
    problem = make_problem(problem_name, scale="smoke", seed=0)
    results = {}
    for engine in ENGINES:
        device = Device(config, engine=engine)
        results[engine] = launch_kernel(device, problem.kernel, problem.arguments,
                                        problem.global_size)
    reference = results["reference"]
    for engine in ENGINES:
        result = results[engine]
        assert result.cycles == reference.cycles, engine
        assert result.counters.as_dict() == reference.counters.as_dict(), engine
        for name, ref_array in reference.outputs.items():
            assert np.array_equal(result.outputs[name], ref_array), engine


def test_integer_ops_keep_exact_python_semantics():
    """SHL/AND/F2I route through Python ints in BOTH engines: large shifts
    must not wrap to int64 and non-finite F2I inputs must raise, identically.

    Executed through the compiled fast-engine handlers directly (no library
    kernel reaches these ranges, which is exactly why they are pinned here).
    """
    from repro.isa.instruction import Instruction
    from repro.isa.opcodes import Opcode
    from repro.isa.registers import CsrFile
    from repro.sim.fastcore import _compile
    from repro.sim.warp import FastWarp

    config = ArchConfig(cores=1, warps_per_core=1, threads_per_warp=4)
    csr = CsrFile(num_threads=4, num_warps=1, num_cores=1)

    def fresh_warp():
        return FastWarp(warp_id=0, lane_count=4, num_registers=8, csr=csr)

    # SHL by 62: float(2 << 62) is exact; an int64 left shift would wrap
    # negative.  The reference engine computes float(int(a) << int(b)).
    warp = fresh_warp()
    warp.regs[0][:] = 2.0
    warp.regs[1][:] = 62.0
    shl = _compile(Instruction(opcode=Opcode.SHL, dst=2, srcs=(0, 1)), config)
    shl(None, warp, 0)
    assert warp.regs[2][0] == float(2 << 62) > 0

    # Negative shift counts raise (Python semantics), never silently zero.
    warp = fresh_warp()
    warp.regs[1][:] = -1.0
    with pytest.raises(ValueError):
        shl(None, warp, 0)

    # F2I of NaN raises exactly like the reference's int(float('nan')).
    warp = fresh_warp()
    warp.regs[0][:] = float("nan")
    f2i = _compile(Instruction(opcode=Opcode.F2I, dst=2, srcs=(0,)), config)
    with pytest.raises(ValueError):
        f2i(None, warp, 0)

    # Integer DIV of inf raises (math.trunc semantics) instead of silently
    # writing inf the way np.trunc would.
    warp = fresh_warp()
    warp.regs[0][:] = float("inf")
    warp.regs[1][:] = 2.0
    div = _compile(Instruction(opcode=Opcode.DIV, dst=2, srcs=(0, 1)), config)
    with pytest.raises(OverflowError):
        div(None, warp, 0)


@pytest.mark.parametrize("engine", ["fast", "batch"])
def test_repeated_launches_are_stable(engine):
    """Neither the fast decode cache nor the batch compile cache may leak
    state across launches."""
    first = run_problem("saxpy", "4c4w8t", engine)
    second = run_problem("saxpy", "4c4w8t", engine)
    assert first.cycles == second.cycles
    assert first.counters.as_dict() == second.counters.as_dict()


# ----------------------------------------------------------------------
# divergence-stress fixtures (unregistered kernels, see engine_fixtures)
# ----------------------------------------------------------------------
_STRESS_SIZE = 64


@pytest.mark.parametrize("config_name", CONFIG_NAMES)
@pytest.mark.parametrize("make_kernel", [
    make_branch_storm_kernel,
    lambda: make_strided_gather_kernel(_STRESS_SIZE),
], ids=["branch_storm", "strided_gather"])
def test_divergence_stress_fixtures_bit_identical(make_kernel, config_name):
    """Irregular branching and strided gathers keep warps off uniform PCs,
    forcing the batch engine through its stream/fallback transitions."""
    kernel = make_kernel()
    results = run_engines(kernel, stress_arguments(_STRESS_SIZE),
                          ArchConfig.from_name(config_name), _STRESS_SIZE)
    assert_engines_identical(results, f"{kernel.name}/{config_name}")


@pytest.mark.parametrize("local_size", [1, 3, 7])
def test_divergence_stress_fixtures_forced_lws(local_size):
    """Stress fixtures under forced tiny lws: partial warps on top of
    divergence, across many sequential kernel calls."""
    kernel = make_branch_storm_kernel()
    results = run_engines(kernel, stress_arguments(_STRESS_SIZE),
                          ArchConfig.from_name("1c2w4t"), _STRESS_SIZE,
                          local_size=local_size)
    assert_engines_identical(results, f"{kernel.name}/lws={local_size}")


@pytest.mark.parametrize("local_size", [None, 1, 3, 8],
                         ids=["runtime", "lws1", "lws3", "lws8"])
@pytest.mark.parametrize("scheduler", ["rr", "gto"])
@pytest.mark.parametrize("config_name", CONFIG_NAMES + NARROW_CONFIG_NAMES)
def test_barrier_fixture_bit_identical(config_name, scheduler, local_size):
    """Warps reach each barrier at different cycles, park, and are released
    together; under small lws some halt while the rest still wait."""
    config = dataclasses.replace(ArchConfig.from_name(config_name),
                                 warp_scheduler=scheduler)
    kernel = make_barrier_kernel()
    results = run_engines(kernel, stress_arguments(_STRESS_SIZE), config,
                          _STRESS_SIZE, local_size=local_size)
    assert_engines_identical(
        results, f"{kernel.name}/{config_name}/{scheduler}/lws={local_size}")
    assert results["reference"].counters.barriers > 0


_FU_SIZE = 256
#: 8- and 16-lane warps, so each strided load holds the LSU for 8+ lines.
_FU_CONFIG_NAMES = ("1c8w8t", "2c4w16t", "4c8w8t")


def _count_fu_blocked_stalls(monkeypatch):
    """Count the reference engine's failed issue attempts in which some
    runnable warp's own readiness (issue spacing, scoreboard) had passed, so
    only its busy functional unit held it back.  Returns a one-item list."""
    blocked = [0]
    try_issue = SimtCore.try_issue

    def spy(self, cycle):
        if try_issue(self, cycle):
            return True
        for warp in self.warps:
            if warp.halted or warp.at_barrier:
                continue
            instr = self.program[warp.pc]
            regs = instr.srcs if instr.dst is None else instr.srcs + (instr.dst,)
            if max(warp.next_issue_cycle, warp.registers_ready_cycle(regs)) <= cycle:
                blocked[0] += 1
                break
        return False

    monkeypatch.setattr(SimtCore, "try_issue", spy)
    return blocked


@pytest.mark.parametrize("scheduler", ["rr", "gto"])
@pytest.mark.parametrize("config_name", _FU_CONFIG_NAMES)
def test_fu_contention_fixture_bit_identical(config_name, scheduler, monkeypatch):
    """Warps stalled on a held SFU or LSU, the case the fast loop's cached
    readiness bound skips on one comparison: the bound must never let a warp
    issue early, and the hint pass must re-read the unit so no visited cycle
    or stall count moves."""
    config = dataclasses.replace(ArchConfig.from_name(config_name),
                                 warp_scheduler=scheduler)
    kernel = make_fu_contention_kernel(_FU_SIZE)
    blocked = _count_fu_blocked_stalls(monkeypatch)
    results = run_engines(kernel, stress_arguments(_FU_SIZE), config, _FU_SIZE)
    assert_engines_identical(results, f"{kernel.name}/{config_name}/{scheduler}")
    assert blocked[0] > 0
    assert results["reference"].counters.sfu_instructions > 0


class _ForwardOnly(list):
    """A functional-unit busy-until list that fails on any write that does
    not move its slot forward, and counts the writes it saw."""

    writes = 0

    def __setitem__(self, index, value):
        assert value > self[index], (
            f"unit {index} busy-until moved back from {self[index]} to {value}")
        type(self).writes += 1
        super().__setitem__(index, value)


@pytest.mark.parametrize("engine", ["fast", "batch"])
def test_unit_busy_until_only_moves_forward(engine, monkeypatch):
    """The invariant the fast loop's readiness bound rests on: a unit's
    busy-until is written only by an issue on it, which needs it at or below
    the cycle and writes ``cycle + hold`` above it."""
    init = FastSimtCore.__init__

    def init_forward_only(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._fu_busy = _ForwardOnly(self._fu_busy)

    monkeypatch.setattr(FastSimtCore, "__init__", init_forward_only)
    monkeypatch.setattr(_ForwardOnly, "writes", 0)
    for config_name in _FU_CONFIG_NAMES:
        for kernel, size in ((make_fu_contention_kernel(_FU_SIZE), _FU_SIZE),
                             (make_strided_gather_kernel(_STRESS_SIZE), _STRESS_SIZE),
                             (make_barrier_kernel(), _STRESS_SIZE)):
            run_engines(kernel, stress_arguments(size), ArchConfig.from_name(config_name),
                        size, engines=(engine,))
    assert _ForwardOnly.writes > 0


# ----------------------------------------------------------------------
# engine selection plumbing
# ----------------------------------------------------------------------
def test_device_exposes_engine_name(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert Device(ArchConfig.from_name("1c2w4t")).engine == DEFAULT_ENGINE
    assert Device(ArchConfig.from_name("1c2w4t"), engine="fast").engine == "fast"
    # An explicit engine always beats the environment.
    monkeypatch.setenv("REPRO_ENGINE", "fast")
    assert Device(ArchConfig.from_name("1c2w4t"), engine="reference").engine == "reference"


def test_unknown_engine_rejected():
    with pytest.raises(EngineError):
        Device(ArchConfig.from_name("1c2w4t"), engine="warp-drive")


def test_engine_environment_fallback(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "fast")
    assert resolve_engine(None) == "fast"
    assert Device(ArchConfig.from_name("1c2w4t")).engine == "fast"
    monkeypatch.setenv("REPRO_ENGINE", "bogus")
    with pytest.raises(EngineError):
        resolve_engine(None)


# ----------------------------------------------------------------------
# campaign cache: the engine never enters the content hash
# ----------------------------------------------------------------------
def test_engine_absent_from_campaign_hash_payload():
    """Results are engine-independent, so the engine must not shard the cache."""
    spec = JobSpec(problem="vecadd", config=ArchConfig.from_name("4c4w8t"))
    payload = spec.hash_payload()
    flattened = str(payload)
    assert "engine" not in payload
    assert "engine" not in flattened
    for engine in ENGINES:
        assert engine not in flattened.replace("reproduce", "")


def test_campaign_hash_and_results_identical_across_engines():
    """A worker running under either engine produces the same hash -> record."""
    from repro.campaign.worker import run_spec

    spec = JobSpec(problem="vecadd", config=ArchConfig.from_name("1c2w4t"),
                   scale="smoke", seed=0)
    records = {engine: run_spec(spec, engine) for engine in ENGINES}
    reference = records["reference"]
    for engine in ENGINES:
        record = records[engine]
        assert record.job_hash == reference.job_hash, engine
        assert record.cycles == reference.cycles, engine
        assert record.counters == reference.counters, engine
