"""Campaign execution: cache-first, then fan out through an executor.

The :class:`CampaignRunner` takes a :class:`~repro.campaign.spec.Campaign`
and produces one outcome per submitted spec, **in submission order**, no
matter how many workers raced to produce them:

1. every spec is first resolved against the :class:`ResultCache` -- one
   batched :meth:`~repro.campaign.cache.ResultCache.get_many` pass for the
   whole campaign (traced jobs are always executed -- the cache stores
   summaries, not event logs);
2. the remaining specs are deduplicated by content hash, so a point submitted
   five times in one campaign is simulated once;
3. distinct points are handed to the runner's
   :class:`~repro.campaign.executor.Executor` -- in-process or a persistent
   fleet of workers forked on this host
   (:class:`~repro.campaign.executor.LocalExecutor`, the default) or a
   multi-host fleet
   (:class:`~repro.campaign.dist.coordinator.DistributedExecutor`) -- and
   every fresh result is written back to the cache;
4. a job that raises becomes a :class:`~repro.campaign.result.JobFailure`
   slotted at its submission index; the rest of the campaign completes.

A progress callback, when given, fires once per submitted job with
``(index, total, spec, outcome)`` -- immediately for cache hits, on
completion for simulated jobs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.campaign.cache import ResultCache
from repro.campaign.executor import Executor, ExecutorTask, LocalExecutor
from repro.campaign.result import JobFailure, JobResult
from repro.campaign.spec import Campaign, JobSpec
from repro.sim.engine import resolve_engine
from repro.telemetry.recorder import RECORDER

#: ``progress(index, total, spec, outcome)``; outcome is a result or failure.
ProgressCallback = Callable[[int, int, JobSpec, Union[JobResult, JobFailure]], None]

Outcome = Union[JobResult, JobFailure]


class CampaignError(RuntimeError):
    """Raised by :meth:`CampaignOutcome.raise_on_failure` when jobs failed."""


@dataclass(frozen=True)
class RunStats:
    """Accounting for one :meth:`CampaignRunner.run` call."""

    total: int                 # specs submitted
    cache_hits: int            # served straight from the persistent cache
    executed: int              # simulator invocations actually performed
    deduplicated: int          # jobs answered by another job of the same run
    failed: int
    elapsed_seconds: float


@dataclass
class CampaignOutcome:
    """Everything one campaign run produced, in submission order."""

    name: str
    specs: List[JobSpec]
    results: List[Outcome]
    stats: RunStats

    @property
    def ok(self) -> bool:
        return self.stats.failed == 0

    def failures(self) -> List[JobFailure]:
        """The failed jobs (empty when everything succeeded)."""
        return [r for r in self.results if isinstance(r, JobFailure)]

    def raise_on_failure(self) -> "CampaignOutcome":
        """Raise :class:`CampaignError` (with tracebacks) if any job failed."""
        failures = self.failures()
        if failures:
            detail = "\n\n".join(f.summary() + "\n" + f.traceback for f in failures)
            raise CampaignError(
                f"campaign {self.name!r}: {len(failures)} of "
                f"{self.stats.total} job(s) failed\n{detail}"
            )
        return self

    def job_results(self) -> List[JobResult]:
        """The results, asserting the campaign fully succeeded first."""
        self.raise_on_failure()
        return list(self.results)


class CampaignRunner:
    """Runs campaigns with a result cache and a pluggable executor.

    Parameters
    ----------
    workers:
        Maximum concurrent simulations for the default
        :class:`~repro.campaign.executor.LocalExecutor`.  ``1`` (the
        default) executes in-process -- fully deterministic, no
        serialisation round trip.  Ignored when ``executor`` is given.
    cache:
        A :class:`ResultCache`, or ``None`` to disable persistence (every
        point is simulated fresh; in-run deduplication still applies).
    executor:
        An explicit :class:`~repro.campaign.executor.Executor` -- e.g. a
        :class:`~repro.campaign.dist.coordinator.DistributedExecutor`
        fanning out to a fleet.  The caller keeps ownership (the runner's
        :meth:`close` only shuts down executors it created itself).
    """

    def __init__(self, workers: int = 1, cache: Optional[ResultCache] = None,
                 executor: Optional[Executor] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache = cache
        self._owns_executor = executor is None
        self.executor: Executor = (
            executor if executor is not None
            else LocalExecutor(workers=workers))

    def without_cache(self) -> "CampaignRunner":
        """This runner, minus the result cache (same executor, shared).

        Used by callers whose measurement is wall-clock time -- a cache-served
        point would time nothing -- e.g. the ``engine-compare`` scenario.
        The clone borrows this runner's executor (so a warm local or
        connected fleet is reused); closing the clone never shuts it down.
        """
        if self.cache is None:
            return self
        return CampaignRunner(workers=self.workers, cache=None,
                              executor=self.executor)

    def close(self) -> None:
        """Shut down the executor, if this runner created it.  Idempotent."""
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(self, campaign: Union[Campaign, Iterable[JobSpec]],
            progress: Optional[ProgressCallback] = None,
            engine: Optional[str] = None) -> CampaignOutcome:
        """Execute every spec; see the module docstring for the pipeline.

        ``engine`` pins every job of this call to one simulation engine;
        ``None`` means ``$REPRO_ENGINE`` or the default.  Either way it is
        resolved here, once, and every task carries the concrete name to
        whichever worker runs it -- which is what lets one warm executor
        serve a planner's mixed-engine shards back to back.
        """
        if not isinstance(campaign, Campaign):
            campaign = Campaign(name="adhoc", specs=list(campaign))
        engine = resolve_engine(engine)
        with RECORDER.span("campaign.run", campaign=campaign.name,
                           jobs=len(campaign.specs)):
            outcome = self._execute(campaign, progress, engine)
        if RECORDER.enabled:
            RECORDER.count("campaign.runs")
            RECORDER.count("campaign.jobs.deduplicated",
                           outcome.stats.deduplicated)
            RECORDER.gauge("campaign.last_run.jobs", outcome.stats.total)
            RECORDER.gauge("campaign.last_run.elapsed_seconds",
                           outcome.stats.elapsed_seconds)
        return outcome

    def _execute(self, campaign: Campaign,
                 progress: Optional[ProgressCallback],
                 engine: str) -> CampaignOutcome:
        specs = list(campaign.specs)
        total = len(specs)
        started = time.perf_counter()
        results: List[Optional[Outcome]] = [None] * total

        # 1. cache resolution, in submission order: one batched get_many pass
        # for every untraced spec.  Each hit still records a synthetic
        # job.cache_hit span (the lookup IS the job's execution), timed as
        # its share of the batch.
        cache_hits = 0
        pending: List[int] = []
        lookups = [index for index, spec in enumerate(specs)
                   if self.cache is not None and not spec.collect_trace]
        resolved: Dict[int, JobResult] = {}
        if lookups:
            lookup_wall = time.time()
            lookup_perf = time.perf_counter() if RECORDER.enabled else 0.0
            found = self.cache.get_many([specs[index] for index in lookups])
            share = ((time.perf_counter() - lookup_perf) / len(lookups)
                     if RECORDER.enabled else 0.0)
            for index, cached in zip(lookups, found):
                if cached is None:
                    continue
                resolved[index] = cached
                if RECORDER.enabled:
                    RECORDER.record_span(
                        "job.cache_hit", lookup_wall, share,
                        job_hash=specs[index].content_hash(),
                        problem=specs[index].problem)
        for index, spec in enumerate(specs):
            cached = resolved.get(index)
            if cached is not None:
                results[index] = cached
                cache_hits += 1
                if progress is not None:
                    progress(index, total, spec, cached)
            else:
                pending.append(index)

        # 2. dedup: one execution per distinct point.  Traced jobs dedup
        # separately from untraced ones (their outcomes carry event logs).
        groups: Dict[Tuple[str, bool, int], List[int]] = {}
        for index in pending:
            spec = specs[index]
            key = (spec.content_hash(), spec.collect_trace, spec.max_trace_events)
            groups.setdefault(key, []).append(index)
        group_indices = list(groups.values())

        # 3. execute each group's first spec through the executor, fan the
        # outcome back out.  Note that traced jobs DO write their summaries
        # back (the journal stores to_dict(), which drops the event log) --
        # they only skip cache reads.  A worker's telemetry payload is merged
        # into this process's recorder here and stripped from the outcome, so
        # cached/fanned-out results are byte-identical to a telemetry-off run.
        def finish(indices: Sequence[int], outcome: Outcome,
                   submitted_wall: Optional[float] = None) -> None:
            payload = getattr(outcome, "telemetry", None)
            if payload is not None:
                started_wall = payload.pop("started_wall", None)
                if RECORDER.enabled:
                    if submitted_wall is not None and started_wall is not None:
                        RECORDER.observe("campaign.queue_wait_seconds",
                                         max(started_wall - submitted_wall, 0.0))
                    RECORDER.merge(payload)
                outcome = replace(outcome, telemetry=None)
            if isinstance(outcome, JobResult) and self.cache is not None:
                self.cache.put(specs[indices[0]], outcome)
            for index in indices:
                results[index] = outcome
                if progress is not None:
                    progress(index, total, specs[index], outcome)

        if group_indices:
            tasks = [ExecutorTask(index=slot, spec=specs[indices[0]],
                                  engine=engine)
                     for slot, indices in enumerate(group_indices)]
            for completion in self.executor.execute(tasks):
                finish(group_indices[completion.index], completion.outcome,
                       completion.submitted_wall)

        final: List[Outcome] = [r for r in results if r is not None]
        assert len(final) == total, "every submitted job must produce an outcome"
        executed = len(group_indices)
        failed = sum(1 for r in final if isinstance(r, JobFailure))
        stats = RunStats(
            total=total,
            cache_hits=cache_hits,
            executed=executed,
            deduplicated=len(pending) - executed,
            failed=failed,
            elapsed_seconds=time.perf_counter() - started,
        )
        return CampaignOutcome(name=campaign.name, specs=specs,
                               results=final, stats=stats)
