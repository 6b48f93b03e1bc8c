"""The executor protocol: where campaign jobs actually run.

:class:`~repro.campaign.runner.CampaignRunner` owns *policy* -- cache-first
resolve, dedup, submission-order folding, failure isolation -- and delegates
*mechanism* to an executor: something that takes :class:`ExecutorTask`\\ s
(one per distinct point) and yields :class:`ExecutorCompletion`\\ s in
whatever order the hardware produces them.  Two implementations exist, on
one multi-process mechanism:

- :class:`LocalExecutor` (here): in-process for one worker or one task,
  otherwise a **persistent**
  :class:`~repro.campaign.dist.coordinator.LocalFleet` of workers forked
  from this process, shared by a planner submission's engine-grouped
  shards.  The engine rides each task as a value
  (:func:`~repro.campaign.worker.execute_job` hands it to the job's
  ``Device``), which is what makes reuse across engine shards safe.
- :class:`~repro.campaign.dist.coordinator.DistributedExecutor`: the same
  coordinator, serving workers on any number of hosts over TCP.

Executors never raise per task: anything that goes wrong -- including a
worker process dying -- becomes a :class:`~repro.campaign.result.JobFailure`
carrying host and last-heartbeat context, and the remaining tasks still
complete (or fail) individually.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Protocol, Sequence, Union, runtime_checkable

from repro.campaign.result import JobFailure, JobResult
from repro.campaign.spec import JobSpec
from repro.campaign.worker import execute_job

Outcome = Union[JobResult, JobFailure]


@dataclass(frozen=True)
class ExecutorTask:
    """One distinct point to execute: a spec, its slot, and its engine."""

    index: int                    # caller-chosen id, echoed on the completion
    spec: JobSpec
    engine: Optional[str] = None  # the runner always names it; None = Device() default


@dataclass(frozen=True)
class ExecutorCompletion:
    """One finished task, in whatever order the executor produced it."""

    index: int                    # the ExecutorTask.index this answers
    outcome: Outcome
    submitted_wall: Optional[float] = None  # when the task was handed off


@runtime_checkable
class Executor(Protocol):
    """Anything that can run campaign tasks and stream back completions."""

    def execute(self,
                tasks: Sequence[ExecutorTask]) -> Iterator[ExecutorCompletion]:
        """Run every task; yield exactly one completion per task, any order."""
        ...

    def close(self) -> None:
        """Release workers/sockets.  Idempotent; the executor is done after."""
        ...


class LocalExecutor:
    """Single-host executor: in-process, or a persistent local fleet.

    Parameters
    ----------
    workers:
        Maximum concurrent simulations.  ``1`` executes in-process -- fully
        deterministic, no serialisation round trip.  A batch of one task
        also runs in-process, unless the fleet already exists.

    The fleet of ``workers`` forked processes is built on the first
    multi-task ``execute()`` and **kept**; ``close()`` (or garbage
    collection) ends it.  A killed worker's task is retried on another, up
    to ``max_retries``; once every worker is lost the queue fails at once
    with host and last-heartbeat context, and the next ``execute()`` builds
    a fresh fleet instead of inheriting the corpse.
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._fleet = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def execute(self,
                tasks: Sequence[ExecutorTask]) -> Iterator[ExecutorCompletion]:
        """Run every task; see the class docstring for the fleet lifecycle."""
        if self.workers <= 1 or (len(tasks) <= 1 and self._fleet is None):
            for task in tasks:
                submitted_wall = time.time()
                outcome = execute_job(task.spec, engine=task.engine)
                yield ExecutorCompletion(task.index, outcome, submitted_wall)
            return
        yield from self._ensure_fleet().execute(tasks)

    def _ensure_fleet(self):
        # Locked: threads sharing one executor (the service's asyncio
        # workers) must not each build a fleet.
        from repro.campaign.dist.coordinator import LocalFleet

        with self._lock:
            if self._fleet is not None and not self._fleet.worker_count:
                self.close()              # every worker lost: start afresh
            if self._fleet is None:
                self._fleet = LocalFleet()
                self._fleet.spawn_local_workers(self.workers)
            return self._fleet

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the fleet down (its workers exit; none is left running)."""
        fleet, self._fleet = self._fleet, None
        if fleet is not None:
            fleet.close()

    def __del__(self):  # best-effort: don't leak worker processes
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass
