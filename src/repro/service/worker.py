"""Background execution: a worker pool draining the queue, narrating progress.

The pool owns N asyncio worker tasks on the service's event loop.  Each
worker claims the oldest pending job, runs the actual simulation work in a
thread (:func:`asyncio.to_thread` -- the campaign stack is synchronous and
CPU/subprocess bound), and journals the terminal state back into the queue.
Per-job progress flows through the :class:`EventBook`: the simulation thread
publishes via ``loop.call_soon_threadsafe`` and any number of SSE
subscribers replay the job's history and then follow live until a terminal
event -- a subscriber that connects after the job finished still sees the
full story (of the ``MAX_FINISHED_HISTORIES`` most recently finished jobs;
of an older one, the outcome alone).

Every job is one :meth:`~repro.scenarios.planner.Planner.run`, the path
``repro scenario run`` takes: a scenario request plans its registered grid,
an ad-hoc grid arrives pre-planned (:meth:`JobRequest.planned`).  All jobs
share the service's one :class:`~repro.campaign.cache.ResultCache` -- that
shared cache is the multi-tenant memoization layer (two clients submitting
the same spec cost one simulation) *and* what makes an HTTP result
bit-identical to a direct library run of the same spec.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import AsyncIterator, Deque, Dict, List, Optional, Tuple

from repro.campaign.cache import ResultCache
from repro.campaign.executor import Executor
from repro.campaign.result import JobFailure
from repro.campaign.runner import CampaignRunner
from repro.service.queue import JobQueue
from repro.service.schemas import Job
from repro.telemetry.log import get_logger
from repro.telemetry.recorder import RECORDER

_LOG = get_logger("service.worker")

#: Event names that end a job's stream (subscribers stop after one).
TERMINAL_EVENTS = ("done", "failed")

#: Cap on retained progress events per job (history replay stays bounded for
#: huge grids; terminal events are always retained).
MAX_EVENTS_PER_JOB = 2048

#: Finished jobs whose history is kept for replay; older ones are forgotten
#: (``GET /jobs/{id}/events`` then answers with the terminal state alone), so
#: a long-lived server's event memory is bounded by this, not by its uptime.
MAX_FINISHED_HISTORIES = 256


class EventBook:
    """Per-job progress event history with replay-then-follow subscription."""

    def __init__(self):
        self._events: Dict[str, List[Tuple[str, Dict]]] = {}
        self._finished: Deque[str] = deque()    # terminal jobs, oldest first
        self._condition: Optional[asyncio.Condition] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Attach to the serving event loop (once, at pool startup)."""
        self._loop = loop
        self._condition = asyncio.Condition()

    # ------------------------------------------------------------------
    def publish(self, job_id: str, name: str, payload: Dict) -> None:
        """Append one event (event-loop thread only) and wake subscribers."""
        events = self._events.setdefault(job_id, [])
        if name not in TERMINAL_EVENTS and len(events) >= MAX_EVENTS_PER_JOB:
            return
        events.append((name, payload))
        if name in TERMINAL_EVENTS:
            self._finished.append(job_id)
            if len(self._finished) > MAX_FINISHED_HISTORIES:
                self._events.pop(self._finished.popleft(), None)

        async def _notify() -> None:
            async with self._condition:
                self._condition.notify_all()
        if self._loop is not None:
            self._loop.create_task(_notify())

    def publish_threadsafe(self, job_id: str, name: str, payload: Dict) -> None:
        """Publish from a simulation thread (hops onto the event loop)."""
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(self.publish, job_id, name, payload)

    def history(self, job_id: str) -> List[Tuple[str, Dict]]:
        return list(self._events.get(job_id, ()))

    # ------------------------------------------------------------------
    async def subscribe(self, job_id: str) -> AsyncIterator[Tuple[str, Dict]]:
        """Replay ``job_id``'s history, then follow live until terminal."""
        cursor = 0
        while True:
            if cursor and job_id not in self._events:
                return        # evicted mid-replay: nothing more will come
            events = self._events.get(job_id, ())
            while cursor < len(events):
                name, payload = events[cursor]
                cursor += 1
                yield name, payload
                if name in TERMINAL_EVENTS:
                    return
            idle = False
            async with self._condition:
                # Re-check under the lock: a publish that landed while we were
                # acquiring it must not turn into a silently missed wakeup.
                if cursor >= len(self._events.get(job_id, ())):
                    try:
                        await asyncio.wait_for(self._condition.wait(),
                                               timeout=30)
                    except asyncio.TimeoutError:
                        idle = True
            if idle:
                # Keep idle streams alive through proxies; subscribers treat
                # this as a comment-grade heartbeat.
                yield "heartbeat", {"job": job_id}


class WorkerPool:
    """N asyncio workers draining the queue through the campaign engines."""

    def __init__(self, queue: JobQueue,
                 events: EventBook,
                 executor: Executor,
                 workers: int = 2,
                 cache: Optional[ResultCache] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.queue = queue
        self.events = events
        self.workers = workers
        self.cache = cache
        # The one Executor every job runs on (the service's local pool or
        # its distributed fleet).  The pool never closes it -- the Service
        # owns its lifecycle.
        self.executor = executor
        self._tasks: List[asyncio.Task] = []
        self._kick: Optional[asyncio.Event] = None
        self._stopping = False

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the workers (queue jobs recovered from disk start draining)."""
        loop = asyncio.get_running_loop()
        self.events.bind(loop)
        self._kick = asyncio.Event()
        self._stopping = False
        if self.queue.recovered:
            _LOG.info("resuming interrupted jobs", count=self.queue.recovered)
        for index in range(self.workers):
            self._tasks.append(
                asyncio.create_task(self._worker(), name=f"service-worker-{index}"))
        if self.queue.pending_count():
            self._kick.set()

    async def stop(self) -> None:
        """Cancel the workers; in-flight jobs resume on next startup."""
        self._stopping = True
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    def notify(self) -> None:
        """Wake the pool (called after every ``POST /jobs``)."""
        if self._kick is not None:
            self._kick.set()

    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while not self._stopping:
            job = self.queue.claim()
            if job is None:
                self._kick.clear()
                await self._kick.wait()
                continue
            self.events.publish(job.id, "running",
                                {"job": job.id, "label": job.request.describe()})
            with RECORDER.span("service.job", job=job.id,
                               kind=job.request.kind):
                try:
                    result = await asyncio.to_thread(self._execute_sync, job)
                except Exception as error:
                    message = f"{type(error).__name__}: {error}"
                    self.queue.fail(job.id, message)
                    self.events.publish(job.id, "failed",
                                        {"job": job.id, "error": message})
                    _LOG.error("job failed", job=job.id, error=message)
                else:
                    self.queue.finish(job.id, result)
                    self.events.publish(job.id, "done", {"job": job.id})
                    _LOG.info("job done", job=job.id,
                              label=job.request.describe())

    # ------------------------------------------------------------------
    def _execute_sync(self, job: Job) -> Dict[str, object]:
        """Run one job to completion (simulation thread; blocking is fine)."""
        from repro.scenarios import Planner

        request = job.request
        scenario, context, plan = request.planned()
        runner = CampaignRunner(cache=self.cache, executor=self.executor)

        def progress(done, total, record_or_failure):
            ok = not isinstance(record_or_failure, JobFailure)
            label = (record_or_failure.spec["label"] if ok
                     else record_or_failure.label)
            self.events.publish_threadsafe(
                job.id, "progress",
                {"job": job.id, "done": done, "total": total,
                 "label": label, "ok": ok})

        # No sink: the shared ResultCache is the service's persistence layer,
        # and a per-job sink directory would never be read back.  The runner
        # borrows the executor, so there is nothing of its own to close.
        run = Planner(runner=runner).run(scenario, context,
                                         progress=progress, plan=plan)
        if request.kind == "scenario":
            return {"kind": "scenario", "report": run.report(), **run.payload()}
        unique = {record.key: record.result for record in run.records}
        cache_hits = sum(result.from_cache for result in unique.values())
        return {
            "kind": "grid",
            "stats": {
                "total": run.stats.planned,
                "cache_hits": cache_hits,
                "executed": run.stats.unique - cache_hits,
                "deduplicated": run.stats.planned - run.stats.unique,
                "failed": run.stats.failed,
                "elapsed_seconds": run.stats.elapsed_seconds,
            },
            "results": [
                {"hash": planned.spec.content_hash(),
                 "label": planned.spec.display_name(),
                 "result": record.result.to_dict()}
                for planned, record in zip(run.plan, run.records)
            ],
        }
