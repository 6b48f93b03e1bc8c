"""What the harness measures: grids, launch sets, parameters, metric tables.

``BENCHMARK.json`` (repo root) is the contract file: command, workloads,
the end-to-end metrics *every* workload reports (with regression bounds) and
the per-layer metric names.  Its keys are fixed by the benchmark contract,
so everything else a workload needs -- engine, grid, launch shapes, the
workload-specific end-to-end metrics and their bounds -- lives here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.scenarios import GridAxes, Scenario
from repro.scenarios.library import figure2_result_from_run
from repro.experiments.report import render_figure2_table
from repro.sim.config import ArchConfig
from repro.sim.engine import ENGINES

HARNESS_DIR = Path(__file__).resolve().parent
REPO_ROOT = HARNESS_DIR.parent.parent
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
EXPECTED_DIR = HARNESS_DIR / "expected"
#: Scratch space of a run (caches, sinks, queues, sqlite files); inside the
#: checkout, gitignored, removed when the run ends.
WORK_DIR = HARNESS_DIR / "_work"


def load_benchmark() -> Dict[str, object]:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(BENCHMARK_JSON.read_text())


# ----------------------------------------------------------------------
# Workload parameters
# ----------------------------------------------------------------------
#: Simulation engine of each workload.  A retired engine must fail loudly:
#: changing one of these is a benchmark change, not a tuning knob.
ENGINE: Dict[str, str] = {
    "sweep_cold": "fast",
    "launch_walkbound": "fast",
    "launch_issuebound": "batch",
    "sweep_warm": "fast",
    "service_mixed": "fast",
    "fleet_grid": "fast",
}


#: Nominal host seconds of one round; a run of ``--seconds S`` makes
#: ``max(3, round(S / nominal))`` timed rounds.  A fixed count (not "until the
#: clock says stop") keeps the number of rounds behind every median the same
#: on a fast and on a slow day.
NOMINAL_ROUND_S: Dict[str, float] = {
    "sweep_cold": 4.0,
    "launch_walkbound": 0.33,
    "launch_issuebound": 0.33,
    "sweep_warm": 1.5,
    "service_mixed": 1.5,
    "fleet_grid": 4.0,
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(3, round(seconds / NOMINAL_ROUND_S[workload]))


def validate_engines() -> None:
    """Raise if a workload names an engine the simulator no longer has."""
    retired = {name: engine for name, engine in ENGINE.items()
               if engine not in ENGINES}
    if retired:
        raise SystemExit(
            f"benchmark engines {retired} are not in repro.sim.engine.ENGINES "
            f"{list(ENGINES)}; changing a workload's engine is a benchmark PR")


# ----------------------------------------------------------------------
# The ref12 reference grid
# ----------------------------------------------------------------------
REF12_CONFIGS: Tuple[ArchConfig, ...] = tuple(
    ArchConfig(cores=cores, warps_per_core=8, threads_per_warp=threads)
    for cores in (1, 4, 16, 64) for threads in (2, 8, 32))
REF12_PROBLEMS = ("vecadd", "relu", "saxpy", "sgemm", "knn")
REF12_STRATEGIES = ("lws=1", "lws=32", "ours")

#: Reduced grid for the harness's own tests (seconds, not minutes).
REDUCED_CONFIGS = (ArchConfig.from_name("1c8w2t"), ArchConfig.from_name("4c8w8t"))
REDUCED_PROBLEMS = ("vecadd", "sgemm")


def _figure2_table(run) -> str:
    return render_figure2_table(figure2_result_from_run(run))


def ref12_scenario(engine: str, scale: str, seeds: Optional[Tuple[int, ...]] = None,
                   reduced: bool = False, name: str = "ref12") -> Scenario:
    """``ref12`` as a harness-owned scenario (not a registry entry).

    12 machines x 5 math kernels x 3 strategies with the sweep's call
    extrapolation: 180 grid points, 145 unique jobs at ``bench`` scale.
    """
    return Scenario(
        name=name,
        description="harness reference grid: cores {1,4,16,64} x threads {2,8,32}",
        grid=GridAxes(
            problems=REDUCED_PROBLEMS if reduced else REF12_PROBLEMS,
            configs=REDUCED_CONFIGS if reduced else REF12_CONFIGS,
            strategies=REF12_STRATEGIES,
            engines=(engine,),
            seeds=seeds,
            scale=scale,
            call_simulation_limit=3,
        ),
        analyze=_figure2_table,
        default_scale=scale,
    )


# ----------------------------------------------------------------------
# Exact launch sets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LaunchPoint:
    """One exact ``launch_kernel`` call of a launch workload."""

    problem: str
    scale: str
    size: Optional[int]           # global-size override (1-D problems)
    machine: str
    lws: Optional[int]            # None = runtime mapping (Eq. 1)

    def key(self, local_size: int) -> str:
        return f"{self.problem}/{self.machine}/lws={local_size}"


#: Each launch is 20-200 ms of host time, so a round is ~0.3 s and a run holds
#: dozens of rounds: a median over that many is steadier on a noisy box than
#: one over three rounds of 3 s launches.  The shapes, not the lengths, decide
#: which layer dominates.
LAUNCH_SETS: Dict[str, List[LaunchPoint]] = {
    # Coalesced streams on wide warps: the hierarchy walk is the largest
    # single cost (a third of run_call for the set, half of it for vecadd).
    "launch_walkbound": [
        LaunchPoint("relu", "bench", 16384, "4c8w32t", None),
        LaunchPoint("vecadd", "bench", 16384, "4c8w32t", None),
        LaunchPoint("saxpy", "bench", 8192, "2c16w16t", 2),
        LaunchPoint("knn", "bench", 8192, "4c8w8t", None),
    ],
    # Many resident warps, many calls, ALU-heavy bodies: issue loop, slab ALU
    # and per-call core build dominate; the walk is ~4% of run_call.
    "launch_issuebound": [
        LaunchPoint("vecadd", "bench", 16384, "1c32w16t", 1),
        LaunchPoint("sgemm", "bench", None, "16c16w16t", None),
        LaunchPoint("gcn_layer", "smoke", None, "4c8w8t", None),
        LaunchPoint("conv2d", "bench", None, "4c16w16t", None),
    ],
}

REDUCED_LAUNCH_SETS: Dict[str, List[LaunchPoint]] = {
    "launch_walkbound": [
        LaunchPoint("relu", "bench", 2048, "4c8w32t", None),
        LaunchPoint("saxpy", "bench", 1024, "2c16w16t", 2),
    ],
    "launch_issuebound": [
        LaunchPoint("vecadd", "bench", 1024, "1c32w16t", 1),
        LaunchPoint("gcn_layer", "smoke", None, "4c8w8t", None),
    ],
}

#: The reference-engine probe of the launch workloads' traced pass.
REFERENCE_PROBE = [
    LaunchPoint("sgemm", "bench", None, "4c4w8t", None),
    LaunchPoint("vecadd", "bench", None, "4c4w8t", None),
]

#: Problems whose *shape* (not just data) is drawn from the seed: their
#: counters are compared with the stored digests only under the stored seed.
#: Every other kernel has data-independent control flow and addresses, so its
#: counters are the same under every seed.
SEED_DEPENDENT_PROBLEMS = frozenset({"gcn_layer", "gcn_aggregate"})

#: Counter fields of one digested point (besides ``cycles``).
DIGEST_COUNTERS = ("warp_instructions", "loads", "stores", "l1_hits", "l1_misses")


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------
SERVICE_GRID = {
    "problems": ["vecadd", "saxpy"],
    "configs": ["2c4w8t", "4c4w8t"],
    "lws": [None, 4],
    "scale": "smoke",
}
SERVICE_JOBS_PER_ROUND = 120          # [new seed, repeat, repeat] x 40
SERVICE_POLL_SECONDS = 0.001


# ----------------------------------------------------------------------
# Workload-specific end-to-end metrics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpecificMetric:
    """An end-to-end metric only some workloads have.

    ``BENCHMARK.json``'s ``end_to_end`` list holds the metrics *every*
    workload reports; these ride in its ``per_layer`` list (the driver
    records them without a bound) and ``compare`` gates them with the bounds
    below.  ``floor`` is an absolute slack in the metric's unit ("10% or
    0.1 s"); ``bound == 0`` means exact.  Host-time metrics carry the same
    bound as ``wall_s`` in ``BENCHMARK.json`` (``sim_kwips`` is a count over
    ``wall_s``; a test pins the two together).
    """

    unit: str
    better: str
    bound: float
    workloads: Tuple[str, ...]
    floor: float = 0.0


ALL = tuple(ENGINE)
SPECIFIC: Dict[str, SpecificMetric] = {
    "sim_kwips": SpecificMetric("kwi/s", "higher", 0.25,
                                ("launch_walkbound", "launch_issuebound")),
    "job_p50_ms": SpecificMetric("ms", "lower", 0.25, ("service_mixed",)),
    "job_p95_ms": SpecificMetric("ms", "lower", 0.25, ("service_mixed",)),
    "teardown_s": SpecificMetric("s", "lower", 0.10, ALL, floor=0.1),
    "failed_frac": SpecificMetric("frac", "lower", 0.0, ALL),
    "eq1_speedup_vs_lws1": SpecificMetric("x", "higher", 0.0, ("sweep_cold",)),
    "eq1_speedup_vs_lws32": SpecificMetric("x", "higher", 0.0, ("sweep_cold",)),
}
