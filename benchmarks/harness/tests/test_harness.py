"""The harness's own tests (not part of tier-1; run them explicitly):

    PYTHONPATH=src python -m pytest benchmarks/harness/tests
"""

import copy
import json
import subprocess
import sys

import pytest

from benchmarks.harness.run import REPO_ROOT, bootstrap

bootstrap()

from benchmarks.harness import compare, layers, spec  # noqa: E402
from benchmarks.harness.spans import SpanRecorder  # noqa: E402
from repro.runtime import Device, launch_kernel  # noqa: E402
from repro.sim.gpu import Gpu  # noqa: E402
from repro.sim.memory.hierarchy import MemoryHierarchy  # noqa: E402
from repro.workloads import make_problem  # noqa: E402

RUN = [sys.executable, str(REPO_ROOT / "benchmarks" / "harness" / "run.py")]
HARNESS = [sys.executable, "-m", "benchmarks.harness"]
BENCHMARK = spec.load_benchmark()
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


def run_once(*arguments: str):
    done = subprocess.run(RUN + list(arguments), cwd=REPO_ROOT, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
def test_benchmark_json_names_the_harness():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/harness"]
    assert set(WORKLOADS) == set(spec.ENGINE)
    assert "setup_s" in {entry["name"] for entry in BENCHMARK["end_to_end"]}
    assert all(entry["bound"] <= 0.25 for entry in BENCHMARK["end_to_end"])
    declared = {entry["name"] for entry in BENCHMARK["per_layer"]}
    assert set(spec.SPECIFIC) <= declared
    # sim_kwips is a count over wall_s: one quantity, one bound.
    bounds = compare.bounds()
    assert bounds["sim_kwips"][1] == bounds["wall_s"][1] == bounds["jobs_per_s"][1]
    spec.validate_engines()


def test_fleet_and_cold_sweep_share_one_stored_digest():
    cold = json.loads((spec.EXPECTED_DIR / "sweep_cold.json").read_text())
    fleet = json.loads((spec.EXPECTED_DIR / "fleet_grid.json").read_text())
    assert cold["digest"] == fleet["digest"]
    assert len(cold["points"]) == 145


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_smoke_at_reduced_size(workload):
    line = run_once("--workload", workload, "--seed", "5", "--rounds", "1", "--reduced")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {entry["name"] for entry in BENCHMARK["end_to_end"]}
    assert all(metric["value"] > 0 for metric in line["metrics"].values())


def test_traced_pass_reports_every_per_layer_metric_and_dumps_spans(tmp_path):
    spans = tmp_path / "spans.json"
    out = tmp_path / "out.json"
    line = run_once("--workload", "launch_walkbound", "--rounds", "1", "--reduced",
                    "--trace", "1", "--spans", str(spans), "--out", str(out))
    assert set(line["metrics"]) == {entry["name"] for entry in BENCHMARK["per_layer"]}
    measured = json.loads(out.read_text())["per_layer"]
    assert 0.0 < measured["sim.memory.walk_frac"] < 1.0
    assert measured["sim.run_calls"] >= 2
    dumped = json.loads(spans.read_text())["spans"]
    by_id = {span["id"]: span for span in dumped}
    walks = [span for span in dumped if span["name"] == layers.WALK]
    assert walks and all(by_id[span["parent"]]["name"] in (layers.RUN_CALL, layers.WALK)
                         for span in walks)


def test_wrappers_are_removed_after_the_traced_pass():
    boundaries = [(cls, method) for cls, method, _ in layers.BOUNDARIES]
    boundaries += [(MemoryHierarchy, name) for name in vars(MemoryHierarchy)
                   if name.startswith(("load", "store"))]
    before = {(cls, method): cls.__dict__[method] for cls, method in boundaries}
    tracer = SpanRecorder()
    layers.install(tracer)
    try:
        assert all(cls.__dict__[method] is not before[cls, method]
                   for cls, method in boundaries)
        problem = make_problem("vecadd", scale="smoke")
        launch_kernel(Device("2c2w4t", engine="fast"), problem.kernel,
                      problem.arguments, problem.global_size)
    finally:
        tracer.remove()
    assert all(cls.__dict__[method] is before[cls, method] for cls, method in boundaries)
    totals = tracer.aggregate()
    assert totals[layers.RUN_CALL].calls >= 1
    # Self time never exceeds total time, and children are charged to parents.
    assert 0.0 <= totals[layers.RUN_CALL].self_time <= totals[layers.RUN_CALL].total
    assert Gpu.__dict__["run_call"].__name__ == "run_call"


def test_corrupted_expected_digest_fails_the_run(tmp_path):
    expected = tmp_path / "expected"
    run_once("--workload", "launch_walkbound", "--rounds", "1", "--reduced",
             "--expected-dir", str(expected), "--write-expected")
    command = HARNESS + ["run", "--workload", "launch_walkbound", "--rounds", "1",
                         "--reduced", "--expected-dir", str(expected),
                         "--out", str(tmp_path / "out.json")]
    assert subprocess.run(command, cwd=REPO_ROOT, capture_output=True).returncode == 0

    path = expected / "launch_walkbound.json"
    stored = json.loads(path.read_text())
    first = next(iter(stored["points"]))
    stored["points"][first]["cycles"] += 1
    path.write_text(json.dumps(stored))
    done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True)
    assert done.returncode != 0
    result = json.loads((tmp_path / "out.json").read_text())["workloads"]["launch_walkbound"]
    assert result["end_to_end"]["failed_frac"] > 0
    assert "failed_frac" in done.stdout


# ----------------------------------------------------------------------
def _document(wall: float):
    rounds = [wall * factor for factor in (0.98, 0.99, 1.0, 1.01, 1.03)]
    return {"workloads": {"sweep_cold": {
        "end_to_end": {"wall_s": wall, "jobs_per_s": 145 / wall, "setup_s": 0.4,
                       "peak_rss_mb": 50.0, "teardown_s": 0.0, "failed_frac": 0.0,
                       "eq1_speedup_vs_lws1": 1.47},
        "rounds_wall_s": rounds,
    }}}


def _verdicts(base, new):
    return {row["metric"]: row["verdict"] for row in compare.compare(base, new)}


def test_verdict_at_the_issues_bound_flags_15_percent_and_passes_3_percent():
    # The arithmetic at the 10% the issue asks for; BENCHMARK.json has to
    # declare 25% on the reference box (README, "Observed spread").
    assert compare.verdict("lower", 0.10, 0.0, 4.0, 4.0 * 1.15)[1] == "regressed"
    assert compare.verdict("lower", 0.10, 0.0, 4.0, 4.0 * 1.03)[1] == "ok"
    assert compare.verdict("higher", 0.10, 0.0, 36.0, 36.0 / 1.15)[1] == "regressed"
    assert compare.verdict("higher", 0.10, 0.0, 36.0, 36.0 / 1.03)[1] == "ok"


def test_compare_flags_a_regression_beyond_the_declared_bound_and_passes_3_percent(tmp_path):
    bound = next(entry["bound"] for entry in BENCHMARK["end_to_end"]
                 if entry["name"] == "wall_s")
    base = _document(4.0)
    slow = _document(4.0 * (1 + bound + 0.15))
    near = _document(4.0 * 1.03)
    assert _verdicts(base, slow)["wall_s"] == "regressed"
    assert _verdicts(base, slow)["jobs_per_s"] == "regressed"
    assert set(_verdicts(base, near).values()) == {"ok"}
    assert set(_verdicts(slow, base).values()) == {"ok"}

    for name, document in (("a", base), ("slow", slow), ("near", near)):
        (tmp_path / f"{name}.json").write_text(json.dumps(document))

    def exit_code(new: str) -> int:
        return subprocess.run(HARNESS + ["compare", str(tmp_path / "a.json"),
                                         str(tmp_path / f"{new}.json")],
                              cwd=REPO_ROOT, capture_output=True).returncode

    assert exit_code("slow") == 1
    assert exit_code("near") == 0


def test_compare_exact_floor_and_unresolved():
    base = _document(4.0)
    drifted = copy.deepcopy(base)
    drifted["workloads"]["sweep_cold"]["end_to_end"]["eq1_speedup_vs_lws1"] = 1.46
    drifted["workloads"]["sweep_cold"]["end_to_end"]["failed_frac"] = 0.01
    drifted["workloads"]["sweep_cold"]["end_to_end"]["teardown_s"] = 0.05   # under the floor
    verdicts = _verdicts(base, drifted)
    assert verdicts["eq1_speedup_vs_lws1"] == "regressed"
    assert verdicts["failed_frac"] == "regressed"
    assert verdicts["teardown_s"] == "ok"

    noisy = _document(5.4)
    noisy["workloads"]["sweep_cold"]["rounds_wall_s"] = [3.6, 4.4, 5.4, 6.4, 7.2]
    assert _verdicts(base, noisy)["wall_s"] == "unresolved"
