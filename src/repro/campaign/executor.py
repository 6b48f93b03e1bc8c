"""The executor protocol: where campaign jobs actually run.

:class:`~repro.campaign.runner.CampaignRunner` owns *policy* -- cache-first
resolve, dedup, submission-order folding, failure isolation -- and delegates
*mechanism* to an executor: something that takes :class:`ExecutorTask`\\ s
(one per distinct point) and yields :class:`ExecutorCompletion`\\ s in
whatever order the hardware produces them.  Two implementations exist:

- :class:`LocalExecutor` (here): in-process for one worker or one task,
  otherwise a **persistent** ``ProcessPoolExecutor`` reused across
  ``execute()`` calls -- a planner submission's engine-grouped shards share
  one pool instead of paying pool spin-up per shard.  The engine rides each
  task (:func:`~repro.campaign.worker.execute_job` pins ``$REPRO_ENGINE``
  around the job), which is what makes pool reuse across engine shards safe.
- :class:`~repro.campaign.dist.coordinator.DistributedExecutor`: fans tasks
  out to worker processes on any number of hosts over TCP.

Executors never raise per task: anything that goes wrong -- including the
pool itself dying -- becomes a :class:`~repro.campaign.result.JobFailure`
carrying host and last-heartbeat context, and the remaining tasks still
complete (or fail) individually.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import sys
import threading
import time
import traceback as traceback_module
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
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
    engine: Optional[str] = None  # pinned per job; None = environment default


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
        """Release pools/sockets.  Idempotent; the executor is done after."""
        ...


def process_context():
    """The multiprocessing context local worker processes start from.

    ``fork`` on Linux, where workers inherit the imported simulator for
    free; the platform default elsewhere (macOS forks past Objective-C/numpy
    state and aborts).
    """
    prefer_fork = (sys.platform.startswith("linux")
                   and "fork" in multiprocessing.get_all_start_methods())
    return multiprocessing.get_context("fork" if prefer_fork else None)


def worker_location() -> str:
    """``host/pid`` string identifying where a job ran (for failures)."""
    return f"{socket.gethostname()}/pid{os.getpid()}"


def pool_failure(spec: JobSpec, error: BaseException,
                 host: str = "", last_heartbeat: Optional[float] = None) -> JobFailure:
    """A :class:`JobFailure` for a job the *executor* killed, not the job.

    Carries the full formatted traceback of ``error`` (PR 9's fidelity
    contract for pool breakage) plus where the job was running and when that
    worker was last known alive.
    """
    return JobFailure(
        job_hash=spec.content_hash(),
        label=spec.display_name(),
        error=f"{type(error).__name__}: {error}",
        traceback="".join(traceback_module.format_exception(
            type(error), error, error.__traceback__)),
        host=host or worker_location(),
        last_heartbeat=last_heartbeat if last_heartbeat is not None else time.time(),
    )


class LocalExecutor:
    """Single-host executor: in-process, or a persistent process pool.

    Parameters
    ----------
    workers:
        Maximum concurrent simulations.  ``1`` executes in-process -- fully
        deterministic, no pickling round trip.  A batch of one task also
        runs in-process regardless (a pool buys nothing there), except when
        a pool already exists: then the warm pool is cheaper than paying an
        in-process import/execution while workers sit idle.
    mp_context:
        Multiprocessing context for the pool; defaults to
        :func:`process_context`.

    The pool is created lazily on the first multi-task ``execute()`` and
    **kept** for subsequent calls; ``close()`` (or garbage collection)
    shuts it down.  A broken pool (a worker SIGKILLed mid-job) fails the
    in-flight tasks with host context and is discarded, so the next
    ``execute()`` gets a fresh pool instead of inheriting the corpse.
    """

    def __init__(self, workers: int = 1, mp_context=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._mp_context = mp_context
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        # Locked: threads sharing one executor (the service's asyncio
        # workers) must not each build a pool.
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=self._mp_context or process_context())
            return self._pool

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    def execute(self,
                tasks: Sequence[ExecutorTask]) -> Iterator[ExecutorCompletion]:
        """Run every task; see the class docstring for pool lifecycle."""
        if self.workers <= 1 or (len(tasks) <= 1 and self._pool is None):
            for task in tasks:
                submitted_wall = time.time()
                outcome = execute_job(task.spec, engine=task.engine)
                yield ExecutorCompletion(task.index, outcome, submitted_wall)
            return
        yield from self._execute_pool(tasks)

    def _execute_pool(self, tasks: Sequence[ExecutorTask]):
        pool = self._ensure_pool()
        submitted_wall = time.time()
        try:
            futures = {pool.submit(execute_job, task.spec, task.engine): task
                       for task in tasks}
        except (BrokenExecutor, RuntimeError):
            # The pool died between calls (or during submission): retry the
            # whole batch once on a fresh pool before giving up on it.
            self._discard_pool()
            pool = self._ensure_pool()
            futures = {pool.submit(execute_job, task.spec, task.engine): task
                       for task in tasks}
        broken = False
        # One waiter over every future: O(n) in all, where a wait() per
        # completion walked every pending future each time.
        for future in as_completed(futures):
            task = futures[future]
            try:
                outcome: Outcome = future.result()
            except Exception as error:  # pool/pickling breakage
                if isinstance(error, BrokenExecutor):
                    broken = True
                outcome = pool_failure(task.spec, error)
            yield ExecutorCompletion(task.index, outcome, submitted_wall)
        if broken:
            self._discard_pool()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down (waits for idle workers to exit)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __del__(self):  # best-effort: don't leak worker processes
        try:
            self._discard_pool()
        except Exception:  # pragma: no cover - interpreter teardown
            pass
