"""The planner: grid expansion, dedup, sharded execution, streaming sink.

``Planner.plan`` expands a scenario's declarative grid into concrete
:class:`~repro.campaign.spec.JobSpec` objects -- strategies resolved to lws
values against each problem's actual global work size, duplicates collapsed
by (engine-qualified) content hash.  ``Planner.run`` then:

1. loads the :class:`~repro.scenarios.sink.ResultSink` (if any) and drops
   every planned job whose key is already recorded -- this is resume;
2. groups the remaining jobs by pinned engine and splits them into shards,
   each submitted through the existing
   :class:`~repro.campaign.runner.CampaignRunner` (cache-first, deduped,
   parallel workers) with a progress hook that commits one sink record the
   moment each simulated job completes (cache-served records share one
   commit, see :meth:`ResultSink.append`) -- a killed run therefore loses
   at most the in-flight jobs, never finished simulation work;
3. returns a :class:`ScenarioRun` whose records follow plan order, mixing
   resumed and freshly simulated points indistinguishably.

Failures abort nothing mid-shard (the campaign runner isolates them); they
are collected and raised together at the end, *after* every successful
record has reached the sink, so ``repro scenario resume`` retries only the
failed points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.result import JobFailure, JobResult
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import Campaign, JobSpec
from repro.core.mapper import strategy_by_name
from repro.scenarios.sink import ResultSink, SinkRecord
from repro.scenarios.spec import (
    GridAxes,
    PlannedJob,
    RUNTIME_STRATEGY,
    Scenario,
    ScenarioContext,
)
from repro.telemetry.recorder import RECORDER
from repro.workloads.problems import problem_global_size

class ScenarioError(RuntimeError):
    """Raised when a scenario run finishes with failed jobs."""


@dataclass(frozen=True)
class PlanStats:
    """Accounting for one :meth:`Planner.run` call."""

    planned: int               # grid points before dedup
    unique: int                # deduplicated jobs (the plan)
    resumed: int               # served from the sink without simulating
    executed: int              # simulated this run
    failed: int
    elapsed_seconds: float

    def render(self) -> str:
        """One-line summary for logs and the CLI."""
        return (f"{self.planned} grid point(s) -> {self.unique} unique job(s): "
                f"{self.resumed} resumed from sink, {self.executed} executed, "
                f"{self.failed} failed in {self.elapsed_seconds:.2f}s")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (``repro scenario report --json``)."""
        return {
            "planned": self.planned,
            "unique": self.unique,
            "resumed": self.resumed,
            "executed": self.executed,
            "failed": self.failed,
            "elapsed_seconds": self.elapsed_seconds,
        }


@dataclass
class ScenarioRun:
    """One completed scenario execution: plan, records and accounting."""

    scenario: Scenario
    context: ScenarioContext
    plan: List[PlannedJob]
    records: List[SinkRecord]
    stats: PlanStats
    sink_path: Optional[str] = None

    def report(self) -> str:
        """The scenario's analysis, rendered from the sink records."""
        return self.scenario.analyze(self)

    def results(self) -> List[JobResult]:
        """Every record's :class:`JobResult`, in plan order."""
        return [record.result for record in self.records]

    def payload(self) -> Dict[str, object]:
        """The machine-readable run (``repro scenario report --json``).

        Same information as the human report's inputs: the stats plus one
        entry per grid point (key, meta tags, result summary).
        """
        return {
            "scenario": self.scenario.name,
            "scale": self.context.scale,
            "sink": self.sink_path,
            "stats": self.stats.to_dict(),
            "records": [
                {"key": record.key, "hash": record.job_hash,
                 "meta": dict(record.meta), "result": record.result.to_dict()}
                for record in self.records
            ],
        }


class Planner:
    """Expands scenario grids and drives them through the campaign engine."""

    def __init__(self, runner: Optional[CampaignRunner] = None):
        self.runner = runner if runner is not None else CampaignRunner()

    # ------------------------------------------------------------------
    def plan(self, scenario: Scenario,
             context: Optional[ScenarioContext] = None) -> List[PlannedJob]:
        """Expand the grid into one planned job per grid point, in grid order.

        Axis order is ``seed > problem > size > config > strategy > engine``
        (frozen for the paper scenarios by
        ``tests/golden/experiments_smoke.json``).  Points whose specs
        coincide -- two strategies resolving to the same lws on some
        machine -- all stay in the plan (each carries its own meta tags for
        analysis); execution dedups them by key (:meth:`unique_jobs`), so
        every distinct point is simulated once and the sink holds exactly
        one record per key.
        """
        context = context if context is not None else ScenarioContext(
            scale=scenario.default_scale)
        problems_cache: Dict[Tuple[str, str, int, Optional[int]], int] = {}
        jobs: List[PlannedJob] = []
        with RECORDER.span("scenario.plan", scenario=scenario.name,
                           scale=context.scale):
            for axes in scenario.axes(context):
                scale = axes.scale if axes.scale is not None else context.scale
                seeds = axes.seeds if axes.seeds is not None else (context.seed,)
                for seed in seeds:
                    for problem_name in axes.problems:
                        for size in axes.sizes:
                            key = (problem_name, scale, seed, size)
                            if key not in problems_cache:
                                # Size-only: planning must not allocate the
                                # workloads' input data.
                                problems_cache[key] = problem_global_size(
                                    problem_name, scale=scale, seed=seed, size=size)
                            gws = problems_cache[key]
                            for config in axes.configs:
                                for strategy_name in axes.strategies:
                                    if strategy_name == RUNTIME_STRATEGY:
                                        lws = None
                                    else:
                                        lws = strategy_by_name(
                                            strategy_name).select_local_size(gws, config)
                                    for engine in axes.engines:
                                        jobs.append(self._planned_job(
                                            scenario, problem_name, scale, seed, size,
                                            gws, config, strategy_name, lws, engine, axes))
        RECORDER.count("scenario.grid_points", len(jobs))
        return jobs

    @staticmethod
    def unique_jobs(plan: Sequence[PlannedJob]) -> List[PlannedJob]:
        """The deduplicated plan: first job per execution key, in plan order."""
        seen: Dict[str, None] = {}
        unique: List[PlannedJob] = []
        for job in plan:
            if job.key() in seen:
                continue
            seen[job.key()] = None
            unique.append(job)
        return unique

    @staticmethod
    def _planned_job(scenario, problem_name, scale, seed, size, gws, config,
                     strategy_name, lws, engine, axes: GridAxes) -> PlannedJob:
        label = f"{scenario.name}/{problem_name}/{config.name}/{strategy_name}"
        if engine is not None:
            label += f"@{engine}"
        spec = JobSpec(
            problem=problem_name,
            config=config,
            scale=scale,
            seed=seed,
            size=size,
            local_size=lws,
            call_simulation_limit=axes.call_simulation_limit,
            collect_trace=axes.collect_trace,
            label=label,
        )
        meta = {
            "scenario": scenario.name,
            "problem": problem_name,
            "config": config.name,
            "strategy": strategy_name,
            "engine": engine,
            "seed": seed,
            "scale": scale,
            "size": size,
            "gws": gws,
        }
        meta.update(axes.tags)
        return PlannedJob(spec=spec, engine=engine, meta=meta)

    # ------------------------------------------------------------------
    def run(self, scenario: Scenario,
            context: Optional[ScenarioContext] = None,
            sink: Optional[ResultSink] = None,
            fresh: bool = False,
            progress=None,
            plan: Optional[List[PlannedJob]] = None) -> ScenarioRun:
        """Execute the scenario; see the module docstring for the pipeline.

        ``progress(done, total, record_or_failure)`` fires once per job that
        was not resumed from the sink.  ``plan`` accepts a pre-expanded plan
        from :meth:`plan` (for the same scenario and context) so callers that
        already inspected the grid do not pay the expansion twice.
        """
        context = context if context is not None else ScenarioContext(
            scale=scenario.default_scale)
        started = time.perf_counter()
        if plan is None:
            plan = self.plan(scenario, context)
        unique = self.unique_jobs(plan)
        RECORDER.count("scenario.jobs.deduplicated", len(plan) - len(unique))

        if sink is not None and fresh:
            sink.reset()
        done: Dict[str, SinkRecord] = sink.load() if sink is not None else {}
        pending = [job for job in unique if job.key() not in done]
        resumed = len(unique) - len(pending)
        RECORDER.count("scenario.jobs.resumed", resumed)

        runner = self.runner if scenario.cacheable else self.runner.without_cache()

        failures: List[JobFailure] = []
        completed = [0]
        total_pending = len(pending)
        # Cache-served records (a resume re-serves them for free) awaiting
        # the one sink commit they share.
        held: List[SinkRecord] = []

        def commit_held():
            if held:
                sink.append(held)
                held.clear()

        with RECORDER.span("scenario.run", scenario=scenario.name,
                           scale=context.scale, jobs=total_pending):
            for engine, shard in self._shards(pending):
                by_hash = {job.spec.content_hash(): job for job in shard}
                campaign = Campaign(name=scenario.name,
                                    specs=[job.spec for job in shard])

                def on_job(index, total, spec, outcome, _by_hash=by_hash):
                    completed[0] += 1
                    job = _by_hash[spec.content_hash()]
                    if isinstance(outcome, JobResult):
                        record = SinkRecord(
                            key=job.key(),
                            job_hash=spec.content_hash(),
                            scenario=scenario.name,
                            result=outcome,
                            spec=spec.to_dict(),
                            meta=job.meta,
                        )
                        done[job.key()] = record
                        if sink is not None and outcome.from_cache:
                            held.append(record)
                        elif sink is not None:
                            commit_held()     # sink order = completion order
                            sink.append(record)
                        if progress is not None:
                            progress(completed[0], total_pending, record)
                    else:
                        failures.append(outcome)
                        if progress is not None:
                            progress(completed[0], total_pending, outcome)

                # The engine rides the runner call (pinned per job wherever
                # it executes), so the runner's executor -- and its warm
                # local or connected fleet -- survives across
                # engine-grouped shards instead of being rebuilt per shard.
                try:
                    runner.run(campaign, progress=on_job, engine=engine)
                finally:
                    commit_held()   # also when the runner raises

        executed = total_pending - len(failures)
        stats = PlanStats(
            planned=len(plan),
            unique=len(unique),
            resumed=resumed,
            executed=executed,
            failed=len(failures),
            elapsed_seconds=time.perf_counter() - started,
        )
        if failures:
            detail = "\n".join(f.summary() for f in failures)
            kept = (f" (successful results are in the sink {sink.path}; "
                    f"resume retries only the failures)" if sink is not None
                    else "")
            raise ScenarioError(
                f"scenario {scenario.name!r}: {len(failures)} of "
                f"{len(pending)} job(s) failed{kept}\n{detail}")
        # Fan the one-record-per-key sink state back out to every grid point:
        # a point that deduplicated against another strategy's spec still gets
        # a record carrying its *own* meta tags, so analyses see the full grid.
        records = self._records(plan, done)
        return ScenarioRun(
            scenario=scenario,
            context=context,
            plan=plan,
            records=records,
            stats=stats,
            sink_path=str(sink.path) if sink is not None else None,
        )

    # ------------------------------------------------------------------
    def load(self, scenario: Scenario,
             context: Optional[ScenarioContext] = None,
             sink: Optional[ResultSink] = None) -> ScenarioRun:
        """Rebuild a completed run from its sink without executing anything.

        This is ``repro scenario report``: plan the grid, resolve every key
        against the sink, and raise :class:`ScenarioError` naming the missing
        jobs if the sink does not cover the whole grid yet.
        """
        context = context if context is not None else ScenarioContext(
            scale=scenario.default_scale)
        plan = self.plan(scenario, context)
        unique = self.unique_jobs(plan)
        done = sink.load() if sink is not None else {}
        missing = [job for job in unique if job.key() not in done]
        if missing:
            names = ", ".join(job.spec.display_name() for job in missing[:5])
            more = "" if len(missing) <= 5 else f", ... ({len(missing) - 5} more)"
            # Echo the grid-shaping flags: resuming with different ones would
            # simulate a *different* grid into the same sink.
            hint = f"repro scenario resume {scenario.name} --scale {context.scale}"
            if context.sweep:
                hint += f" --sweep {context.sweep}"
            if context.seed:
                hint += f" --seed {context.seed}"
            if context.problems:
                hint += f" --kernels {','.join(context.problems)}"
            where = f" {sink.path}" if sink is not None else ""
            raise ScenarioError(
                f"scenario {scenario.name!r}: sink{where} covers "
                f"{len(unique) - len(missing)} of {len(unique)} job(s); "
                f"missing {names}{more} -- run `{hint}` to complete it")
        stats = PlanStats(planned=len(plan), unique=len(unique),
                          resumed=len(unique), executed=0, failed=0,
                          elapsed_seconds=0.0)
        return ScenarioRun(
            scenario=scenario,
            context=context,
            plan=plan,
            records=self._records(plan, done),
            stats=stats,
            sink_path=str(sink.path) if sink is not None else None,
        )

    @staticmethod
    def _records(plan: Sequence[PlannedJob],
                 done: Dict[str, SinkRecord]) -> List[SinkRecord]:
        """One record per grid point, carrying that point's own meta tags.

        A record is copied only when its meta differs from the point's: a
        point that deduplicated against another strategy's spec.
        """
        records = []
        for job in plan:
            record = done[job.key()]
            records.append(record if record.meta == job.meta
                           else replace(record, meta=job.meta))
        return records

    # ------------------------------------------------------------------
    def _shards(self, pending: Sequence[PlannedJob]):
        """Yield one ``(engine, jobs)`` shard per engine group, in first-seen order.

        Grouping by engine keeps each campaign-runner call homogeneous (the
        engine is passed per call and pinned around every job, wherever it
        executes).  The runner's executor -- and its warm worker pool -- is
        shared across all of a submission's shards, and the per-job progress
        hook already streams the sink, so a group is never split further.
        """
        groups: Dict[Optional[str], List[PlannedJob]] = {}
        for job in pending:
            groups.setdefault(job.engine, []).append(job)
        yield from groups.items()


