"""The six workloads: set-up, one round of fixed work, verification, teardown.

Each workload stresses one region of the stack and leaves another idle, so
every optimisation has a workload where it must show and one where the
prediction is *no change* (see ``README.md``).  A workload object lives in
one process for one run; :mod:`benchmarks.harness.measure` drives it.

``round()`` is the timed region and does only what the user action does;
``verify()`` runs untimed afterwards, counts operations and failures, and
removes what the round left on disk.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.campaign import (
    Campaign,
    CampaignRunner,
    ExecutorTask,
    JobResult,
    LocalExecutor,
    ResultCache,
)
from repro.campaign.dist import Connection, DistributedExecutor
from repro.core.optimizer import optimal_local_size
from repro.experiments.claims import evaluate_claims
from repro.experiments.report import render_figure2_table
from repro.kernels.wrapper import build_workgroup_program
from repro.runtime import Device, NDRange, launch_kernel
from repro.runtime.dispatcher import build_dispatch_plan
from repro.scenarios import Planner, ResultSink, ScenarioContext, ScenarioError
from repro.scenarios.library import figure2_result_from_run
from repro.service.queue import JobQueue
from repro.service.schemas import validate_request
from repro.sim.compile import compile_program
from repro.sim.gpu import Gpu
from repro.telemetry.recorder import RECORDER
from repro.trace import Tracer
from repro.warehouse import (
    KIND_CACHE,
    KIND_SINK,
    open_store,
    parity_check,
    rebuild,
    run_canned,
    sync,
)
from repro.workloads import make_problem

from benchmarks.harness import spec
from benchmarks.harness.spans import SpanRecorder

Point = Tuple[str, Dict[str, int]]          # digest key, counter values
Layers = Dict[str, Optional[float]]


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
@dataclass
class Check:
    """What verifying one round found."""

    ops: int = 0                  # user-visible operations completed (jobs_per_s)
    attempted: int = 0            # operations + checks
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    points: List[Point] = field(default_factory=list)
    #: Per-round raw values the workload turns into metrics afterwards.
    values: Dict[str, object] = field(default_factory=dict)

    def expect(self, ok: bool, note: str) -> None:
        """One check: counted, and a failed operation when ``ok`` is false."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def _span(tracer: Optional[SpanRecorder], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _timed(function, *args, **kwargs) -> float:
    started = time.perf_counter()
    function(*args, **kwargs)
    return time.perf_counter() - started


def point_values(cycles: int, counters: Dict[str, float]) -> Dict[str, int]:
    values = {"cycles": int(cycles)}
    values.update({name: int(counters[name]) for name in spec.DIGEST_COUNTERS})
    return values


def result_point(result: JobResult) -> Point:
    key = f"{result.problem}/{result.config_name}/lws={result.local_size}"
    return key, point_values(result.cycles, result.counters)


def points_digest(points: Dict[str, Dict[str, int]]) -> str:
    canonical = json.dumps(points, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * len(ordered))) - 1))
    return ordered[rank]


class TimingExecutor:
    """An :class:`~repro.campaign.executor.Executor` that spans each job.

    The ``Executor`` protocol is the public seam for per-job time: with a
    serial inner executor the interval between two completions is one job.
    """

    def __init__(self, inner, tracer: SpanRecorder):
        self.inner = inner
        self.tracer = tracer

    def execute(self, tasks: Sequence[ExecutorTask]) -> Iterator:
        completions = iter(self.inner.execute(tasks))
        while True:
            handle = self.tracer.begin("executor.job")
            try:
                completion = next(completions)
            except StopIteration:
                self.tracer.cancel(handle)
                return
            self.tracer.end(handle)
            yield completion

    def close(self) -> None:
        self.inner.close()


class Workload:
    """Base class: identity, scratch space, stored-answer checks."""

    name = ""
    #: How often set-up is timed (``setup_s`` is the median).  Workloads that
    #: start processes set up once: a second sample would need an untimed
    #: teardown in between and would not measure the same thing.
    setup_samples = 3
    #: Per-layer names under which this workload's set-up / teardown time is
    #: also reported (the server start, the fleet's ``close()``).
    setup_layer: Optional[str] = None
    teardown_layer: Optional[str] = None

    def __init__(self, seed: int, work: Path, reduced: bool = False,
                 expected_dir: Optional[Path] = None):
        self.seed = seed
        self.work = work
        self.reduced = reduced
        self.engine = spec.ENGINE[self.name]
        self.expected_dir = expected_dir if expected_dir is not None else spec.EXPECTED_DIR
        self.expected = self._load_expected()

    # -- lifecycle (overridden) ----------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int, tracer: Optional[SpanRecorder]):
        raise NotImplementedError

    def verify(self, payload) -> Check:
        raise NotImplementedError

    def teardown(self) -> None:
        """Close executors / stop servers.  Idempotent."""

    def child_pids(self) -> List[int]:
        """Processes this workload started (for ``peak_rss_mb``)."""
        return []

    def specific(self, wall_s: float, checks: List[Check]) -> Dict[str, float]:
        """Workload-specific end-to-end metrics; ``wall_s`` is the fastest
        timed round, ``checks`` the verified timed rounds."""
        return {}

    def layers(self, traced: Check, traced_wall: float, rounds: List[float]) -> Layers:
        """Per-layer metrics only this workload can produce (direct probes);
        ``traced`` is the verified traced round, ``rounds`` the seconds of the
        timed (untraced) ones.  A probe timed once is set against their median,
        one timed as ``wall_s`` is (fastest of several) against their fastest."""
        return {}

    # -- stored answers ------------------------------------------------
    def _expected_path(self) -> Path:
        return self.expected_dir / f"{self.name}.json"

    def _load_expected(self) -> Optional[Dict[str, object]]:
        path = self._expected_path()
        if not path.exists():
            return None
        stored = json.loads(path.read_text())
        # Stored answers describe one input size; a reduced run has its own.
        return stored if bool(stored.get("reduced")) == self.reduced else None

    def check_points(self, check: Check) -> None:
        """Compare the round's digested points with the stored answers."""
        if self.expected is None:
            return
        stored: Dict[str, Dict[str, int]] = self.expected["points"]
        same_seed = self.expected["seed"] == self.seed

        def comparable(key: str) -> bool:
            return same_seed or key.split("/", 1)[0] not in spec.SEED_DEPENDENT_PROBLEMS

        # A key may occur more than once (the same point under two seeds).
        got = [(key, values) for key, values in check.points if comparable(key)]
        wrong = [f"{key}: got {values}, stored {stored.get(key)}"
                 for key, values in got if stored.get(key) != values]
        seen = {key for key, _ in got}
        missing = [key for key in stored if comparable(key) and key not in seen]
        check.expect(not wrong and not missing,
                     f"{self.name}: {len(wrong)} point(s) differ from "
                     f"{self._expected_path().name}, {len(missing)} missing"
                     + (f" (first: {(wrong or missing)[0]})" if wrong or missing else ""))

    def write_expected(self, check: Check, extra: Dict[str, float]) -> Path:
        """Store this run's points as the answers of ``(workload, size)``."""
        points: Dict[str, Dict[str, int]] = {}
        for key, values in check.points:
            if points.setdefault(key, values) != values:
                raise SystemExit(f"{self.name}: point {key} is not stable "
                                 f"within one run; refusing to store it")
        path = self._expected_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "workload": self.name,
            "seed": self.seed,
            "reduced": self.reduced,
            "digest": points_digest(points),
            "extra": extra,
            "points": points,
        }, indent=1, sort_keys=True) + "\n")
        return path


# ----------------------------------------------------------------------
# sweep_cold
# ----------------------------------------------------------------------
class SweepCold(Workload):
    """The Figure-2 user action: plan ``ref12``, simulate it, sink it."""

    name = "sweep_cold"

    def setup(self) -> None:
        scale = "smoke" if self.reduced else "bench"
        self.scenario = spec.ref12_scenario(self.engine, scale, reduced=self.reduced)
        self.context = ScenarioContext(scale=scale, seed=self.seed)
        self.unique = Planner.unique_jobs(Planner().plan(self.scenario, self.context))
        self.last_run = None

    def round(self, index: int, tracer: Optional[SpanRecorder]):
        directory = self.work / f"round-{index}"
        cache = ResultCache(directory / "cache")
        sink = ResultSink(directory / "sink.jsonl")
        if tracer is None:
            runner = CampaignRunner(workers=1, cache=cache)
        else:
            runner = CampaignRunner(cache=cache, executor=TimingExecutor(
                LocalExecutor(workers=1), tracer))
        try:
            run = Planner(runner).run(self.scenario, self.context, sink=sink)
        except ScenarioError as error:
            run = error
        return run, cache, sink, directory

    def verify(self, payload) -> Check:
        run, cache, sink, directory = payload
        jobs = len(self.unique)
        check = Check(attempted=jobs)
        if isinstance(run, ScenarioError):
            check.failed = jobs
            check.notes.append(str(run).splitlines()[0])
        else:
            check.ops = run.stats.executed
            check.failed = jobs - run.stats.executed
            check.expect(len(sink.load()) == jobs, "sink does not hold one record per job")
            check.expect(len(ResultCache(cache.directory)) == jobs,
                         "cache journal does not hold one entry per job")
            check.points = [result_point(record.result) for record in run.records]
            self.check_points(check)
            claims = evaluate_claims(figure2_result_from_run(run))
            check.values = {
                "eq1_speedup_vs_lws1": claims.by_id("C1").measured_value,
                "eq1_speedup_vs_lws32": claims.by_id("C2").measured_value,
                "warp_instructions": sum(r.result.counters["warp_instructions"]
                                         for r in run.records),
                "cycles": sum(r.result.cycles for r in run.records),
                "planned": run.stats.planned,
                "unique": run.stats.unique,
            }
            if self.expected is not None:
                stored = self.expected["extra"]
                check.expect(all(check.values[name] == stored[name] for name in stored),
                             f"Eq.-1 speed-ups {check.values} differ from stored {stored}")
            self.last_run = run
        shutil.rmtree(directory, ignore_errors=True)
        return check

    def specific(self, wall_s, checks) -> Dict[str, float]:
        return {name: checks[-1].values[name]
                for name in ("eq1_speedup_vs_lws1", "eq1_speedup_vs_lws32")
                if name in checks[-1].values}

    # -- direct probes -------------------------------------------------
    def layers(self, traced, traced_wall, rounds) -> Layers:
        out: Layers = {}
        jobs = self.unique
        problems = {name: make_problem(name, scale=self.context.scale, seed=self.seed)
                    for name in sorted({job.spec.problem for job in jobs})}
        # ArchConfig carries a dict and is not hashable: distinct by name.
        configs = list({job.spec.config.name: job.spec.config for job in jobs}.values())

        out["workloads.make_problem_ms"] = _ms(median(
            _timed(make_problem, name, scale=self.context.scale, seed=self.seed)
            for name in problems))
        out["kernels.build_program_ms"] = _ms(median(
            _timed(build_workgroup_program, problem.kernel, use_cache=False)
            for problem in problems.values()))
        out["runtime.device_init_ms"] = _ms(median(
            _timed(Device, config, engine=self.engine) for config in configs))

        def lws_of(job) -> int:
            gws = int(job.meta["gws"])
            return (job.spec.local_size if job.spec.local_size is not None
                    else optimal_local_size(gws, job.spec.config))

        out["runtime.dispatch_plan_ms"] = _ms(median(
            _timed(build_dispatch_plan,
                   NDRange(int(job.meta["gws"]), lws_of(job)), job.spec.config, {})
            for job in jobs))
        pairs = list({(int(job.meta["gws"]), job.spec.config.name):
                      (int(job.meta["gws"]), job.spec.config) for job in jobs}.values())
        repeats = 200
        started = time.perf_counter()
        for _ in range(repeats):
            for gws, config in pairs:
                optimal_local_size(gws, config)
        out["core.eq1_us"] = (time.perf_counter() - started) / (repeats * len(pairs)) * 1e6
        out["campaign.content_hash_us"] = median(
            _timed(replace(job.spec, label=job.spec.label).content_hash)
            for job in jobs) * 1e6
        out["sim.compile_ms"] = _ms(median(
            _timed(compile_program, build_workgroup_program(problem.kernel), config)
            for problem in problems.values() for config in configs))

        # launch_kernel minus the run_call time inside it, on every tenth job.
        probe = SpanRecorder()
        probe.wrap(Gpu, "run_call", "run_call")
        try:
            for job in jobs[::10]:
                problem = problems[job.spec.problem]
                device = Device(job.spec.config, engine=self.engine)
                with probe.span("launch"):
                    launch_kernel(device, problem.kernel, problem.arguments,
                                  problem.global_size, local_size=job.spec.local_size,
                                  call_simulation_limit=job.spec.call_simulation_limit)
        finally:
            probe.remove()
        totals = probe.aggregate()
        if "run_call" in totals:
            out["runtime.launch_overhead_frac"] = (
                1.0 - totals["run_call"].total / totals["launch"].total)

        if self.last_run is not None:
            result = figure2_result_from_run(self.last_run)
            out["experiments.render_ms"] = _ms(_timed(render_figure2_table, result))
            cycles: Dict[Tuple[str, str], Dict[str, int]] = {}
            for record in self.last_run.records:
                cycles.setdefault((record.meta["problem"], record.meta["config"]), {})[
                    record.meta["strategy"]] = record.result.cycles
            out["core.ours_best_frac"] = sum(
                1 for by in cycles.values()
                if by["ours"] <= min(by["lws=1"], by["lws=32"])) / len(cycles)

        # The program's own telemetry on, same round.
        RECORDER.enabled = True
        try:
            started = time.perf_counter()
            payload = self.round(9000, None)
            wall = time.perf_counter() - started
            recorded = RECORDER.drain()
        finally:
            RECORDER.enabled = False
        self.verify(payload)
        out["telemetry.enabled_overhead_frac"] = wall / median(rounds) - 1.0
        out["telemetry.spans_per_job"] = len(recorded["spans"]) / len(jobs)

        # An issue tracer attached to one launch vs none.
        problem = problems["vecadd"]
        config = configs[len(configs) // 2]

        def traced_launch(with_tracer: bool) -> float:
            device = Device(config, engine=self.engine,
                            tracer=Tracer(max_events=200_000) if with_tracer else None)
            return _timed(launch_kernel, device, problem.kernel, problem.arguments,
                          problem.global_size)

        plain = median(traced_launch(False) for _ in range(5))
        out["trace.tracer_overhead_frac"] = (
            median(traced_launch(True) for _ in range(5)) / plain - 1.0)

        def cli(*arguments: str) -> float:
            return median(_timed(subprocess.run, [sys.executable, *arguments], check=True,
                                 stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                          for _ in range(2))

        out["cli.import_s"] = cli("-c", "import repro")
        out["cli.startup_s"] = cli("-m", "repro", "scenario", "list")
        return out


# ----------------------------------------------------------------------
# launch_walkbound / launch_issuebound
# ----------------------------------------------------------------------
class LaunchSet(Workload):
    """Exact ``launch_kernel`` calls on fixed problems and machines."""

    def setup(self) -> None:
        sets = spec.REDUCED_LAUNCH_SETS if self.reduced else spec.LAUNCH_SETS
        self.points = sets[self.name]
        self.problems = [make_problem(point.problem, scale=point.scale, seed=self.seed,
                                      size=point.size) for point in self.points]
        self.references = [problem.reference_outputs() for problem in self.problems]
        self.devices = self._devices(self.engine)

    def _devices(self, engine: str) -> List[Device]:
        return [Device(point.machine, engine=engine) for point in self.points]

    def _launch_all(self, devices: List[Device], tracer: Optional[SpanRecorder]):
        results = []
        for point, problem, device in zip(self.points, self.problems, devices):
            with _span(tracer, "launch"):
                results.append(launch_kernel(device, problem.kernel, problem.arguments,
                                             problem.global_size, local_size=point.lws))
        return results

    def round(self, index: int, tracer: Optional[SpanRecorder]):
        return self._launch_all(self.devices, tracer)

    def verify(self, payload) -> Check:
        check = Check(ops=len(payload), attempted=len(payload))
        totals = {"warp_instructions": 0, "cycles": 0, "load_lines": 0,
                  "store_lines": 0, "l1_hits": 0, "l1_misses": 0}
        for point, reference, result in zip(self.points, self.references, payload):
            check.expect(
                all(np.allclose(result.outputs[name], expected)
                    for name, expected in reference.items()),
                f"{point.problem}@{point.machine}: outputs differ from the numpy reference")
            counters = result.counters.as_dict()
            check.points.append((point.key(result.local_size),
                                 point_values(result.cycles, counters)))
            for name in totals:
                totals[name] += int(counters[name])
        check.values = totals
        self.check_points(check)
        return check

    def specific(self, wall_s, checks) -> Dict[str, float]:
        return {"sim_kwips": checks[-1].values["warp_instructions"] / wall_s / 1e3}

    def layers(self, traced, traced_wall, rounds) -> Layers:
        out: Layers = {}
        values = traced.values
        out["sim.host_us_per_wi"] = min(rounds) / values["warp_instructions"] * 1e6
        out["sim.memory.lines"] = values["load_lines"] + values["store_lines"]
        accesses = values["l1_hits"] + values["l1_misses"]
        out["sim.memory.l1_hit_rate"] = values["l1_hits"] / accesses if accesses else None

        # The same launches under the other production engine, measured the
        # same way: one warm-up round, then the fastest round.
        shape = self.name.split("_", 1)[1]
        other = "batch" if self.engine == "fast" else "fast"
        devices = self._devices(other)
        self._launch_all(devices, None)
        other_wall = min(_timed(self._launch_all, devices, None)
                         for _ in range(3 if self.reduced else 9))
        by_engine = {self.engine: min(rounds), other: other_wall}
        out[f"sim.fast.{shape}_s"] = by_engine["fast"]
        out[f"sim.batch.{shape}_s"] = by_engine["batch"]
        out[f"sim.batch_over_fast.{shape}"] = by_engine["batch"] / by_engine["fast"]
        if self.name == "launch_walkbound":
            out.update(self._reference_probe())
        return out

    def _reference_probe(self) -> Layers:
        """``reference`` against ``fast`` on two small bench launches."""
        walls = {}
        for engine in ("reference", "fast"):
            total = 0.0
            for point in spec.REFERENCE_PROBE:
                problem = make_problem(point.problem, scale="smoke" if self.reduced
                                       else point.scale, seed=self.seed)
                device = Device(point.machine, engine=engine)
                total += _timed(launch_kernel, device, problem.kernel,
                                problem.arguments, problem.global_size)
            walls[engine] = total
        return {"sim.reference.probe_s": walls["reference"],
                "sim.fast_over_reference.probe": walls["fast"] / walls["reference"]}


class LaunchWalkbound(LaunchSet):
    name = "launch_walkbound"


class LaunchIssuebound(LaunchSet):
    name = "launch_issuebound"


# ----------------------------------------------------------------------
# sweep_warm
# ----------------------------------------------------------------------
class SweepWarm(Workload):
    """The stores of ``sweep_cold`` used the other way round: all reads."""

    name = "sweep_warm"
    setup_samples = 1             # starts a two-process pool, simulates 1016 jobs

    def setup(self) -> None:
        seeds = tuple(self.seed + offset for offset in range(2 if self.reduced else 8))
        self.scenario = spec.ref12_scenario(self.engine, "smoke", seeds=seeds,
                                            reduced=self.reduced, name="warm")
        self.context = ScenarioContext(scale="smoke", seed=self.seed)
        self.cache_dir = self.work / "store" / "cache"
        self.sink_path = self.work / "store" / "scenarios" / "warm.jsonl"
        shutil.rmtree(self.work / "store", ignore_errors=True)
        pool = LocalExecutor(workers=2)
        try:
            run = Planner(CampaignRunner(cache=ResultCache(self.cache_dir),
                                         executor=pool)).run(
                self.scenario, self.context, sink=ResultSink(self.sink_path))
        finally:
            pool.close()
        self.unique = run.stats.unique
        self.planned = run.stats.planned

    def _journals(self):
        return [(self.cache_dir / "results.jsonl", KIND_CACHE),
                (self.sink_path, KIND_SINK)]

    def round(self, index: int, tracer: Optional[SpanRecorder]):
        directory = self.work / f"round-{index}"
        with _span(tracer, "cache.open"):
            cache = ResultCache(self.cache_dir)
        run = Planner(CampaignRunner(workers=1, cache=cache)).run(
            self.scenario, self.context, sink=ResultSink(directory / "warm.jsonl"))
        loaded = Planner().load(self.scenario, self.context,
                                sink=ResultSink(self.sink_path))
        with _span(tracer, "scenarios.report"):
            report = loaded.report()
        store = open_store(directory / "warehouse.sqlite")
        try:
            with _span(tracer, "warehouse.sync"):
                synced = sync(store, journals=self._journals())
            with _span(tracer, "warehouse.parity_check"):
                mismatches = parity_check(store, journals=self._journals())
            with _span(tracer, "warehouse.query.best_lws"):
                best = run_canned(store, "best-lws")
            with _span(tracer, "warehouse.query.speedup"):
                speedup = run_canned(store, "speedup")
        finally:
            store.close()
        return run, cache, loaded, report, synced, mismatches, best, speedup, directory

    def verify(self, payload) -> Check:
        run, cache, loaded, report, synced, mismatches, best, speedup, directory = payload
        check = Check(ops=cache.hits, attempted=self.unique,
                      failed=self.unique - cache.hits)
        check.expect(cache.misses == 0 and all(r.result.from_cache for r in run.records),
                     f"{cache.misses} point(s) were simulated, not cache-served")
        check.expect(len(loaded.records) == self.planned and bool(report),
                     "Planner.load did not cover the grid")
        check.expect(not mismatches, f"warehouse parity: {mismatches[:2]}")
        check.expect(bool(best.rows) and bool(speedup.rows), "a canned query came back empty")
        check.points = [result_point(record.result) for record in run.records]
        check.values = {"rows": synced.ingested, "planned": self.planned,
                        "unique": self.unique}
        self.check_points(check)
        shutil.rmtree(directory, ignore_errors=True)
        return check

    def layers(self, traced, traced_wall, rounds) -> Layers:
        out: Layers = {}
        out["campaign.cache.open_ms"] = _ms(median(
            _timed(ResultCache, self.cache_dir) for _ in range(3)))
        out["campaign.cache.journal_bytes_per_entry"] = (
            ResultCache(self.cache_dir).stats().bytes_per_entry)
        directory = self.work / "probe"
        store = open_store(directory / "warehouse.sqlite")
        try:
            sync(store, journals=self._journals())
            out["warehouse.resync_noop_ms"] = _ms(_timed(sync, store,
                                                         journals=self._journals()))
            out["warehouse.rebuild_s"] = _timed(rebuild, store, journals=self._journals())
        finally:
            store.close()
        shutil.rmtree(directory, ignore_errors=True)

        # First use of a two-process pool: fork + hand-off, minus the same
        # two tiny jobs on the then-warm pool.
        tasks = [ExecutorTask(index=slot, spec=job.spec, engine=self.engine)
                 for slot, job in enumerate(Planner.unique_jobs(
                     Planner().plan(self.scenario, self.context))[:2])]
        pool = LocalExecutor(workers=2)
        try:
            cold = _timed(lambda: list(pool.execute(tasks)))
            warm = _timed(lambda: list(pool.execute(tasks)))
        finally:
            pool.close()
        out["campaign.executor.pool_spawn_s"] = cold - warm
        return out


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------
@dataclass
class JobSample:
    """One HTTP job, timed from the client."""

    seed: int
    repeat: bool                  # a repeat of the previous new seed (cache-served)
    submit: float = 0.0           # POST /jobs round trip
    total: float = 0.0            # submit -> terminal state
    polls: List[float] = field(default_factory=list)
    bad_responses: int = 0        # non-2xx answers
    state: str = ""
    results: Optional[list] = None


class ServiceMixed(Workload):
    """``POST /jobs`` closed loop: 1 client, 1 keep-alive connection."""

    name = "service_mixed"
    setup_samples = 1             # starts the server process
    setup_layer = "service.startup_s"

    def setup(self) -> None:
        self.jobs_per_round = 12 if self.reduced else spec.SERVICE_JOBS_PER_ROUND
        self.next_seed = 0
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        state = self.work / "service"
        shutil.rmtree(state, ignore_errors=True)
        state.mkdir(parents=True)
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(self.port),
             "--workers", "1", "--sim-workers", "1", "--rate", "0",
             "--queue-dir", str(state / "queue"), "--cache-dir", str(state / "cache")],
            env=dict(os.environ, REPRO_ENGINE=self.engine), cwd=state,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                self.connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                             timeout=30)
                if self._request("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                self.connection.close()
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro serve did not come up")
            time.sleep(0.01)

    def _request(self, method: str, path: str, body: Optional[str] = None):
        headers = {"content-type": "application/json"} if body is not None else {}
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        raw = response.read()
        return response.status, raw

    def _job(self, seed: int, repeat: bool) -> JobSample:
        sample = JobSample(seed=seed, repeat=repeat)
        body = json.dumps(dict(spec.SERVICE_GRID, seed=seed))
        started = time.perf_counter()
        status, raw = self._request("POST", "/jobs", body)
        sample.submit = time.perf_counter() - started
        if status != 202:
            sample.bad_responses += 1
            return sample
        path = f"/jobs/{json.loads(raw)['job']}"
        while True:
            time.sleep(spec.SERVICE_POLL_SECONDS)
            polled = time.perf_counter()
            status, raw = self._request("GET", path)
            now = time.perf_counter()
            sample.polls.append(now - polled)
            if status != 200:
                sample.bad_responses += 1
                return sample
            job = json.loads(raw)
            if job["state"] in ("done", "failed"):
                sample.total = now - started
                sample.state = job["state"]
                sample.results = (job.get("result") or {}).get("results")
                return sample

    def round(self, index: int, tracer: Optional[SpanRecorder]):
        samples = []
        for slot in range(self.jobs_per_round):
            repeat = slot % 3 != 0
            if not repeat:
                # Never seen by this server; within numpy's seed range.
                seed = (self.seed * 7919 + self.next_seed) % (2 ** 31)
                self.next_seed += 1
            samples.append(self._job(seed, repeat))
        return samples

    def verify(self, payload: List[JobSample]) -> Check:
        check = Check(values={"samples": payload})
        first = None
        for sample in payload:
            ok = sample.bad_responses == 0 and sample.state == "done"
            check.expect(ok, f"job seed={sample.seed}: state {sample.state!r}, "
                             f"{sample.bad_responses} non-2xx response(s)")
            check.ops += ok
            if not sample.repeat:
                first = sample
                for entry in sample.results or ():
                    result = entry["result"]
                    check.points.append((
                        f"{result['problem']}/{result['config_name']}/"
                        f"lws={result['local_size']}",
                        point_values(result["cycles"], result["counters"])))
            elif ok:
                check.expect(
                    first is not None and json.dumps(sample.results, sort_keys=True)
                    == json.dumps(first.results, sort_keys=True),
                    f"repeat of seed={sample.seed} is not byte-identical to the first answer")
        self.check_points(check)
        return check

    def specific(self, wall_s, checks) -> Dict[str, float]:
        # Submit -> terminal state of every job of every timed round, pooled.
        self.pooled = [sample for check in checks for sample in check.values["samples"]
                       if sample.state == "done"]
        totals = [sample.total for sample in self.pooled]
        return {"job_p50_ms": _ms(median(totals)),
                "job_p95_ms": _ms(percentile(totals, 0.95))}

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is None:
            return
        self.connection.close()
        if server.poll() is None:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=15)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        self.server = None

    def child_pids(self) -> List[int]:
        return [self.server.pid] if getattr(self, "server", None) is not None else []

    def layers(self, traced, traced_wall, rounds) -> Layers:
        out: Layers = {}
        # Client-side timing per request class, over the same pooled jobs of
        # the untraced rounds as job_p50_ms (the server is another process:
        # the traced round adds nothing here).
        samples = self.pooled
        out["service.submit_p50_ms"] = _ms(median(s.submit for s in samples))
        out["service.status_p50_ms"] = _ms(median(p for s in samples for p in s.polls))
        hit_p50 = median(s.total for s in samples if s.repeat)
        out["service.hit_job_p50_ms"] = _ms(hit_p50)
        out["service.miss_job_p50_ms"] = _ms(median(
            s.total for s in samples if not s.repeat))
        out["service.healthz_ms"] = _ms(median(
            _timed(self._request, "GET", "/healthz") for _ in range(20)))
        out["service.metrics_ms"] = _ms(median(
            _timed(self._request, "GET", "/metrics") for _ in range(20)))

        request = validate_request(dict(spec.SERVICE_GRID, seed=self.seed))
        queue = JobQueue(self.work / "probe-queue" / "jobs.jsonl")
        out["service.queue.submit_ms"] = _ms(median(
            _timed(queue.submit, request, client="probe") for _ in range(50)))

        # The same eight cached specs without the service around them.
        cache = ResultCache(self.work / "probe-cache")
        with CampaignRunner(workers=1, cache=cache) as runner:
            runner.run(request.specs(), engine=self.engine)
            direct = median(_timed(runner.run, request.specs(), engine=self.engine)
                            for _ in range(20))
        out["service.overhead_ms_per_job"] = _ms(hit_p50 - direct)
        return out


# ----------------------------------------------------------------------
# fleet_grid
# ----------------------------------------------------------------------
class FleetGrid(Workload):
    """``--executor dist``: the ``ref12`` jobs under seeds s and s+1 (290
    tasks, none a duplicate of another) on a two-worker loopback fleet."""

    name = "fleet_grid"
    setup_samples = 1             # starts the coordinator and two workers
    setup_layer = "dist.spawn_s"
    teardown_layer = "dist.close_s"

    def setup(self) -> None:
        scale = "smoke" if self.reduced else "bench"
        scenario = spec.ref12_scenario(self.engine, scale, reduced=self.reduced,
                                       seeds=(self.seed, self.seed + 1))
        plan = Planner().plan(scenario, ScenarioContext(scale=scale, seed=self.seed))
        self.specs = [job.spec for job in Planner.unique_jobs(plan)]
        self.executor = DistributedExecutor()
        self.workers = self.executor.spawn_local_workers(2)
        self.executor.wait_for_workers(2, timeout=60.0)
        self.counters: Dict[str, float] = {}

    def round(self, index: int, tracer: Optional[SpanRecorder]):
        runner = CampaignRunner(executor=self.executor)
        campaign = Campaign("fleet_grid", specs=self.specs)
        if tracer is None:
            return runner.run(campaign, engine=self.engine)
        # The coordinator's own byte and requeue counters, traced round only.
        RECORDER.enabled = True
        try:
            return runner.run(campaign, engine=self.engine)
        finally:
            self.counters = dict(RECORDER.drain()["counters"])
            RECORDER.enabled = False

    def verify(self, payload) -> Check:
        done = [result for result in payload.results if isinstance(result, JobResult)]
        check = Check(ops=len(done), attempted=len(self.specs),
                      failed=len(self.specs) - len(done))
        check.notes = [failure.summary() for failure in payload.failures()[:3]]
        check.points = [result_point(result) for result in done]
        check.values = {"busy_s": sum(result.elapsed_seconds for result in done)}
        self.check_points(check)
        return check

    def teardown(self) -> None:
        executor = getattr(self, "executor", None)
        if executor is not None:
            executor.close()
            self.executor = None

    def child_pids(self) -> List[int]:
        return [process.pid for process in getattr(self, "workers", ())
                if process.poll() is None]

    def layers(self, traced, traced_wall, rounds) -> Layers:
        out: Layers = {}
        tasks = len(self.specs)
        out["dist.per_task_overhead_ms"] = _ms(
            (2 * traced_wall - traced.values["busy_s"]) / tasks)
        moved = (self.counters.get("dist.bytes_sent", 0.0)
                 + self.counters.get("dist.bytes_received", 0.0))
        out["dist.bytes_per_task"] = moved / tasks
        out["dist.tasks_requeued"] = self.counters.get("dist.tasks_requeued", 0.0)

        # One framed message there and back over a socketpair.
        left, right = (Connection(sock) for sock in socket.socketpair())
        message = {"type": "tasks", "tasks": [self.specs[0].to_dict()]}

        def echo() -> None:
            while (received := right.recv()) is not None:
                right.send(received)

        thread = threading.Thread(target=echo, daemon=True)
        thread.start()
        trips = []
        for _ in range(200):
            started = time.perf_counter()
            left.send(message)
            left.recv()
            trips.append(time.perf_counter() - started)
        left.close()
        thread.join(timeout=5)
        right.close()
        out["dist.frame_roundtrip_us"] = median(trips) * 1e6

        # The same jobs on one in-process executor, fastest of two runs
        # against the fastest fleet round.
        serial = min(_timed(CampaignRunner(workers=1).run, self.specs, engine=self.engine)
                     for _ in range(2))
        out["dist.speedup_vs_serial"] = serial / min(rounds)
        return out


WORKLOADS = {cls.name: cls for cls in (SweepCold, LaunchWalkbound, LaunchIssuebound,
                                       SweepWarm, ServiceMixed, FleetGrid)}
