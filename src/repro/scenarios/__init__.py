"""Declarative scenario layer: one registry + planner + sink behind every
figure, sweep and ablation.

The scenario subsystem sits on top of the campaign engine and below the CLI:

* :mod:`~repro.scenarios.spec` -- :class:`Scenario` declares an experiment as
  grid axes (problems x configs x strategies x engines x seeds) plus an
  analysis hook; :class:`GridAxes` is one cross product, a scenario may union
  several.
* :mod:`~repro.scenarios.registry` -- the process-wide name -> scenario map
  behind ``repro scenario list/run/resume/report``.
* :mod:`~repro.scenarios.planner` -- :class:`Planner` expands grids into
  concrete :class:`~repro.campaign.spec.JobSpec` objects, dedups execution by
  content hash, and submits shards through the existing
  :class:`~repro.campaign.runner.CampaignRunner` (cache, workers, failure
  isolation included).
* :mod:`~repro.scenarios.sink` -- :class:`ResultSink` streams one JSONL
  record per completed job, so an interrupted run resumes without
  re-simulating finished points.
* :mod:`~repro.scenarios.library` -- the built-in scenarios: the four ported
  paper experiments (``figure1``, ``figure2``, ``ablation``, ``claims``), the
  exhaustive lws search (``lws-search``) and the sweeps the abstraction
  makes cheap (``scaling``, ``scheduler-sweep``, ``engine-compare``,
  ``cache-sensitivity``).

Quick start::

    from repro.scenarios import Planner, REGISTRY, ResultSink, ScenarioContext

    scenario = REGISTRY.get("scaling")
    run = Planner().run(scenario, ScenarioContext(scale="smoke"),
                        sink=ResultSink("scaling.jsonl"))
    print(run.report())

Declaring a new experiment is a grid plus an analysis function::

    from repro.scenarios import GridAxes, Scenario, register
    from repro.sim.config import ArchConfig

    register(Scenario(
        name="warp-pressure",
        description="cycles vs warps per core",
        grid=GridAxes(problems=("sgemm",),
                      configs=tuple(ArchConfig(cores=4, warps_per_core=w,
                                               threads_per_warp=8)
                                    for w in (2, 4, 8, 16))),
        analyze=lambda run: "\\n".join(
            f"{r.meta['config']}: {r.result.cycles} cycles"
            for r in run.records),
    ))
"""

from repro.scenarios.planner import (
    PlanStats,
    Planner,
    ScenarioError,
    ScenarioRun,
)
from repro.scenarios.registry import (
    REGISTRY,
    ScenarioRegistry,
    UnknownScenarioError,
    register,
)
from repro.scenarios.sink import (
    DEFAULT_SINK_DIR,
    SINK_DIR_ENV,
    ResultSink,
    SinkRecord,
    default_sink_dir,
    default_sink_path,
)
from repro.scenarios.spec import (
    GridAxes,
    PlannedJob,
    RUNTIME_STRATEGY,
    Scenario,
    ScenarioContext,
)

# Importing the library registers the built-in scenarios as a side effect.
from repro.scenarios import library as _library  # noqa: E402,F401

__all__ = [
    "DEFAULT_SINK_DIR",
    "GridAxes",
    "PlanStats",
    "PlannedJob",
    "Planner",
    "REGISTRY",
    "RUNTIME_STRATEGY",
    "ResultSink",
    "SINK_DIR_ENV",
    "Scenario",
    "ScenarioContext",
    "ScenarioError",
    "ScenarioRegistry",
    "ScenarioRun",
    "SinkRecord",
    "UnknownScenarioError",
    "default_sink_dir",
    "default_sink_path",
    "register",
]
