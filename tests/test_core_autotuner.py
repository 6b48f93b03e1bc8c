"""Tests for the exhaustive lws search: ``candidate_set`` and the
``lws-search`` scenario that runs every candidate through the planner."""

from dataclasses import replace

from repro.core.optimizer import candidate_set, optimal_local_size
from repro.experiments.configs import paper_sweep
from repro.scenarios import REGISTRY, Planner, ScenarioContext
from repro.sim.config import ArchConfig
from repro.workloads.problems import SCALES, available_problems, problem_global_size

CONFIG = ArchConfig(cores=2, warps_per_core=2, threads_per_warp=4)   # hp = 16


def test_default_candidates_cover_extremes_and_eq1():
    candidates = candidate_set(128, CONFIG)
    assert candidates == (1, 2, 4, 8, 16, 32, 64, 128)
    assert optimal_local_size(128, CONFIG) in candidates
    # A non-power-of-two Eq.-1 value (ceil(100 / 12) = 9) and gws join the
    # powers of two.
    hp12 = ArchConfig(cores=3, warps_per_core=2, threads_per_warp=2)
    assert candidate_set(100, hp12) == (1, 2, 4, 8, 9, 16, 32, 64, 100)


def test_default_candidates_respect_the_cap():
    """The set is searched whole because it is small: logarithmic in gws, at
    most 19 values for every registered problem at every scale on every one
    of the 450 paper machines."""
    largest = max(len(candidate_set(problem_global_size(problem, scale=scale), config))
                  for problem in available_problems() for scale in SCALES
                  for config in paper_sweep())
    assert largest <= 19


def test_exhaustive_search_finds_eq1_competitive():
    search = REGISTRY.get("lws-search")
    context = ScenarioContext(scale="smoke", exact_calls=True, problems=("vecadd",),
                              sweep="paper")
    grid = [axes for axes in search.axes(context) if axes.configs[0] == CONFIG]
    run = Planner().run(replace(search, grid=grid), context)
    by_lws = {record.result.local_size: record.result.cycles for record in run.records}
    assert sorted(by_lws) == [1, 2, 4, 8, 16, 32, 64]
    best = min(by_lws.values())
    eq1 = by_lws[optimal_local_size(64, CONFIG)]
    # The paper's point: Eq. 1 is within a small factor of the best.
    assert eq1 <= 1.25 * best
    assert by_lws[1] >= best
    row = next(line for line in run.report().splitlines() if "| 2c2w4t " in line)
    assert f" {best} " in row and f" {eq1} " in row and f"{eq1 / best:.3f}x" in row


def test_exhaustive_search_always_includes_eq1_value():
    context = ScenarioContext(scale="smoke", problems=("relu", "sgemm"), sweep="bench")
    plan = Planner().plan(REGISTRY.get("lws-search"), context)
    points = {}
    for job in plan:
        points.setdefault((job.meta["problem"], job.meta["config"]), set()).add(
            job.spec.local_size)
    assert len(points) == 2 * 36
    for (problem, machine), searched in points.items():
        gws = problem_global_size(problem, scale="smoke")
        config = ArchConfig.from_name(machine)
        assert searched == set(candidate_set(gws, config))
        assert optimal_local_size(gws, config) in searched
