"""Ad-hoc sweep scenarios for tests (the ``examples/custom_scenario.py`` shape).

Tests that need a small Figure-2 style result declare the grid here and run
it through the planner -- the same path every CLI verb takes.
"""

import json
from pathlib import Path

from repro.experiments.figure2 import Figure2Result
from repro.scenarios import GridAxes, Planner, Scenario, ScenarioContext
from repro.scenarios.library import figure2_result_from_run


def sweep_scenario(problems, configs,
                   strategies=("lws=1", "lws=32", "ours")) -> Scenario:
    """kernels x machines x strategies, three kernel calls simulated exactly."""
    return Scenario(
        name="test-sweep",
        description="ad-hoc strategy sweep",
        grid=GridAxes(problems=tuple(problems), configs=tuple(configs),
                      strategies=tuple(strategies), call_simulation_limit=3),
        analyze=lambda run: "",
    )


def sweep_row(record) -> dict:
    """One Figure-2 record as the frozen golden's row: every field except the
    wall time, which differs between cold, warm, serial and parallel runs."""
    return {"problem": record.problem, "category": record.category,
            "config": record.config_name, "hp": record.hardware_parallelism,
            "strategy": record.strategy, "lws": record.local_size,
            "gws": record.global_size, "calls": record.num_calls,
            "cycles": record.cycles,
            "lane_utilization": record.lane_utilization}


def run_sweep(problems, configs, seed=0, runner=None) -> Figure2Result:
    """The smoke-scale sweep as a :class:`Figure2Result` (serial and uncached
    unless ``runner`` says otherwise)."""
    run = Planner(runner=runner).run(sweep_scenario(problems, configs),
                                     ScenarioContext(scale="smoke", seed=seed))
    return figure2_result_from_run(run)


#: What the deleted ``repro.experiments`` driver loops submitted, returned and
#: printed at commit 7effd92, one section per paper experiment.
EXPERIMENTS_GOLDEN = Path(__file__).parent / "golden" / "experiments_smoke.json"


def check_golden(section: str, measured, update: bool) -> None:
    """``measured`` equals the frozen section (``--update-golden`` rewrites
    it: content hashes move with the simulator version and ArchConfig)."""
    golden = json.loads(EXPERIMENTS_GOLDEN.read_text())
    if update:
        golden[section] = measured
        EXPERIMENTS_GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    assert measured == golden[section]
