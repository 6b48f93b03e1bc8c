"""Golden performance-counter regression fixtures.

Every (kernel, machine) point of a fixed seed grid has its full
:class:`~repro.sim.stats.PerfCounters` snapshot checked into
``tests/golden/<kernel>.json``.  Any simulator change that moves *any*
counter by *any* amount -- cycle model, cache policy, coalescer, scheduler,
either engine -- fails here loudly, listing the exact counters that moved.

When a counter change is intentional, regenerate the fixtures and commit the
diff alongside the change::

    PYTHONPATH=src python -m pytest tests/test_golden_counters.py --update-golden

The snapshots are engine-independent by construction (the engines are
bit-identical, see ``tests/test_engine_differential.py``), so the same
fixtures serve every ``REPRO_ENGINE``; without one the grid runs on the
``reference`` oracle, not the library's default.
"""

import json
from pathlib import Path

import pytest

from engine_fixtures import engine_under_test
from repro.runtime.device import Device
from repro.runtime.launcher import launch_kernel
from repro.sim.config import ArchConfig
from repro.workloads.problems import available_problems, make_problem

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The seed grid: every library kernel on the Figure-1 machine and a
#: multi-core mid-size machine, smoke scale, seed 0, runtime (Eq.-1) lws.
GOLDEN_CONFIGS = ("1c2w4t", "4c4w8t")
GOLDEN_SEED = 0
GOLDEN_SCALE = "smoke"


def golden_path(problem_name: str) -> Path:
    return GOLDEN_DIR / f"{problem_name}.json"


def simulate_point(problem_name: str, config_name: str) -> dict:
    """Run one grid point and return its snapshot payload."""
    problem = make_problem(problem_name, scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    device = Device(ArchConfig.from_name(config_name), engine=engine_under_test())
    result = launch_kernel(device, problem.kernel, problem.arguments,
                           problem.global_size)
    return {
        "cycles": result.cycles,
        "local_size": result.local_size,
        "num_calls": result.num_calls,
        "counters": {k: v for k, v in sorted(result.counters.as_dict().items())},
    }


def load_golden(problem_name: str) -> dict:
    path = golden_path(problem_name)
    if not path.exists():
        pytest.fail(
            f"missing golden fixture {path}; generate it with "
            f"'python -m pytest tests/test_golden_counters.py --update-golden'"
        )
    with path.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("problem_name", available_problems())
def test_golden_counters(problem_name, update_golden):
    snapshots = {config: simulate_point(problem_name, config)
                 for config in GOLDEN_CONFIGS}

    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        with golden_path(problem_name).open("w") as handle:
            json.dump(snapshots, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return

    golden = load_golden(problem_name)
    assert set(golden) == set(snapshots), (
        f"{problem_name}: golden fixture covers configs {sorted(golden)} but the "
        f"grid is {sorted(snapshots)}; rerun with --update-golden"
    )
    for config, snapshot in snapshots.items():
        expected = golden[config]
        moved = {}
        for key in ("cycles", "local_size", "num_calls"):
            if snapshot[key] != expected[key]:
                moved[key] = (expected[key], snapshot[key])
        for counter, expected_value in expected["counters"].items():
            actual = snapshot["counters"].get(counter)
            if actual != expected_value:
                moved[f"counters.{counter}"] = (expected_value, actual)
        extra = set(snapshot["counters"]) - set(expected["counters"])
        assert not extra, (
            f"{problem_name}/{config}: new counters {sorted(extra)} not in the "
            f"golden fixture; rerun with --update-golden"
        )
        assert not moved, (
            f"{problem_name}/{config}: counters moved (golden -> current): {moved}. "
            f"If intentional, regenerate with --update-golden and commit the diff."
        )
