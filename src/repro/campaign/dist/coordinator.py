"""The fleet coordinator: a work-stealing ``Executor`` over TCP.

:class:`DistributedExecutor` implements the
:class:`~repro.campaign.executor.Executor` protocol by serving tasks to N
worker processes (any mix of hosts) over the length-prefixed JSON transport:

- **Pull-based stealing.**  Workers ask (``next``) and block; the dispatcher
  answers with a *chunk* sized by guided self-scheduling --
  ``ceil(pending / (2 * workers))`` clamped to ``[1, max_chunk]`` -- so
  early chunks are big (amortising round trips) and late chunks are small
  (a straggler can't hold the tail hostage).  A fast host simply asks more
  often; heterogeneous fleets stay saturated with no balancing logic.
- **Liveness.**  Workers heartbeat every ``heartbeat_interval`` seconds; a
  worker silent for ``heartbeat_timeout`` is declared dead and its
  connection torn down.  Death and disconnection converge on the same path:
  every task the worker had not yet answered is re-queued (at the *front*,
  so retries don't wait behind the whole grid) with its attempt count
  bumped.  A task exceeding ``max_retries`` re-queues becomes a
  :class:`~repro.campaign.result.JobFailure` carrying the dead worker's
  host and last-heartbeat time.  Results can never be duplicated: a
  completion is only emitted when a *live* connection answers a task it
  still owns, and a presumed-dead worker's socket is closed before its
  tasks are re-queued.
- **Local workers are forks.**
  :meth:`DistributedExecutor.spawn_local_workers` starts each worker from
  this process, the way :class:`~repro.campaign.executor.LocalExecutor`
  starts its pool (``fork`` on Linux), so a local fleet inherits the
  imported simulator instead of every worker importing ``repro`` again.
  The accept, dispatch and monitor threads start on first use
  (:meth:`~DistributedExecutor.wait_for_workers` or
  :meth:`~DistributedExecutor.execute`), so the usual sequence --
  construct, spawn, wait -- forks a process with no coordinator thread in
  it.  Workers on other hosts join with ``repro worker --connect``.
- **No cache of its own.**  The executor only moves tasks and outcomes.
  The :class:`~repro.campaign.runner.CampaignRunner` driving it resolves
  every spec against its ``ResultCache`` before dispatch and journals every
  result that comes back, so a point computed on any host is cache-served
  to every later run, distributed or local.

Multiple ``execute()`` calls may be in flight concurrently (the service
layer runs one per API job); tasks carry a submission backref and fold back
to their own caller.  Telemetry: ``dist.steal_wait_seconds``,
``dist.chunk_size``, ``dist.bytes_sent/received``, ``dist.workers_*``,
``dist.tasks_*``.
"""

from __future__ import annotations

import os
import queue
import socket
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.campaign.dist.protocol import (
    Connection,
    ProtocolError,
    shutdown_and_close,
)
from repro.campaign.dist.worker import run_worker
from repro.campaign.executor import (ExecutorCompletion, ExecutorTask,
                                     process_context)
from repro.campaign.result import JobFailure, JobResult
from repro.telemetry.recorder import RECORDER


def _local_worker(address: Tuple[str, int],
                  inherited: Sequence[socket.socket]) -> None:
    """The whole life of one local fleet worker (runs in the child).

    Closes this process's copies of the coordinator's sockets -- ``close``,
    never ``shutdown``, which would tear down the parent's end too -- so the
    listener dies with the parent and no accepted connection outlives it,
    points fd 1 at ``/dev/null`` (stderr stays), then serves ``address``.
    The multiprocessing bootstrap turns a return into exit 0 and an
    exception into a traceback and exit 1, and a forked child leaves through
    ``os._exit``: it never returns into the parent's stack or runs the
    parent's ``atexit`` handlers.
    """
    for sock in inherited:
        sock.close()
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    run_worker(address)


class _LocalWorker:
    """Handle on one local worker process: the ``subprocess.Popen`` subset
    callers use -- ``pid``, ``poll()``, ``wait(timeout)``, ``kill()``."""

    def __init__(self, process):
        self._process = process
        self.pid: int = process.pid

    def poll(self) -> Optional[int]:
        """The exit code (negative: killed by that signal), or ``None``."""
        return self._process.exitcode

    def wait(self, timeout: Optional[float] = None) -> int:
        """Block until exit; raises ``subprocess.TimeoutExpired`` if late."""
        self._process.join(timeout)
        if self._process.exitcode is None:
            raise subprocess.TimeoutExpired(f"fleet worker pid {self.pid}",
                                            timeout)
        return self._process.exitcode

    def kill(self) -> None:
        self._process.kill()


class _Submission:
    """One in-flight ``execute()`` call: its completion stream."""

    def __init__(self, submission_id: int):
        self.id = submission_id
        self.completions: "queue.Queue[ExecutorCompletion]" = queue.Queue()


@dataclass
class _Task:
    """One unit on the wire: a spec (pre-serialised once) plus bookkeeping."""

    id: int
    task: ExecutorTask
    spec_dict: Dict
    submission: _Submission
    attempts: int = 0            # times a worker died holding this task
    done: bool = False
    submitted_wall: float = 0.0  # last hand-off to a worker


class _Worker:
    """Coordinator-side state for one connected worker."""

    def __init__(self, worker_id: int, connection: Connection, host: str,
                 pid: int):
        self.id = worker_id
        self.connection = connection
        self.name = f"{host}/pid{pid}"
        self.last_seen = time.time()
        self.idle_since: Optional[float] = None
        self.outstanding: Dict[int, _Task] = {}
        self.alive = True


class DistributedExecutor:
    """Work-stealing multi-host executor; see the module docstring.

    Parameters
    ----------
    host, port:
        Bind address for workers; ``port=0`` picks a free port (see
        :attr:`address`).
    heartbeat_interval / heartbeat_timeout:
        Worker heartbeat cadence and the silence that declares one dead.
    max_retries:
        How many worker deaths one task survives before failing.
    max_chunk:
        Ceiling on tasks per steal.
    worker_wait:
        How long ``execute()`` tolerates an *empty* fleet (none connected)
        before failing its queued tasks -- covers the fleet never arriving
        and every worker dying with retries exhausted pending.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 heartbeat_interval: float = 1.0,
                 heartbeat_timeout: float = 10.0,
                 max_retries: int = 2,
                 max_chunk: int = 8,
                 worker_wait: float = 60.0):
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_retries = max_retries
        self.max_chunk = max_chunk
        self.worker_wait = worker_wait
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._pending: Deque[_Task] = deque()
        self._workers: Dict[int, _Worker] = {}
        self._idle: Deque[_Worker] = deque()
        self._next_task_id = 0
        self._next_worker_id = 0
        self._next_submission_id = 0
        self._closing = threading.Event()
        self._local_processes: List[_LocalWorker] = []
        self._listener = socket.create_server((host, port))
        self._accepted: Set[socket.socket] = set()  # a fork closes these
        self._threads: List[threading.Thread] = []

    def _start(self) -> None:
        """Start the accept, dispatch and monitor threads, once.

        Deferred from ``__init__`` so :meth:`spawn_local_workers` can fork
        before any of them exists; until then a dialling worker waits in
        the listener's backlog.
        """
        with self._lock:
            if self._threads or self._closing.is_set():
                return
            self._threads = [
                threading.Thread(target=self._accept_loop, name="dist-accept",
                                 daemon=True),
                threading.Thread(target=self._dispatch_loop,
                                 name="dist-dispatch", daemon=True),
                threading.Thread(target=self._monitor_loop,
                                 name="dist-monitor", daemon=True),
            ]
            for thread in self._threads:
                thread.start()

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` workers should connect to."""
        return self._listener.getsockname()[:2]

    @property
    def worker_count(self) -> int:
        """Workers registered so far (none before the threads start)."""
        with self._lock:
            return len(self._workers)

    def spawn_local_workers(self, count: int) -> List[_LocalWorker]:
        """Start ``count`` worker processes on this host, joined to this
        coordinator; they exit when the coordinator closes.

        Each is a child of this process, started the way
        :class:`~repro.campaign.executor.LocalExecutor` starts its pool
        (:func:`~repro.campaign.executor.process_context`: ``fork`` on
        Linux), running :func:`_local_worker`; starting one flushes this
        process's ``stdout`` and ``stderr`` first, so no child writes their
        buffers again.  Call it before :meth:`wait_for_workers` or
        :meth:`execute` start the coordinator's threads: a fork of a
        threaded process may inherit a lock another thread held.
        """
        context = process_context()
        started = []
        with self._lock:          # no accept between the snapshot and a fork
            inherited = ([self._listener, *self._accepted]
                         if context.get_start_method() == "fork" else [])
            for _ in range(count):
                # daemon: an interpreter exiting without close() terminates
                # the worker instead of waiting for it at exit.
                process = context.Process(
                    target=_local_worker, args=(self.address, inherited),
                    name="repro-fleet-worker", daemon=True)
                process.start()
                started.append(_LocalWorker(process))
            self._local_processes.extend(started)
        return started

    def wait_for_workers(self, count: int, timeout: float = 60.0) -> None:
        """Block until ``count`` workers are connected (or raise)."""
        self._start()
        deadline = time.monotonic() + timeout
        with self._wake:
            while len(self._workers) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"{len(self._workers)} of {count} worker(s) connected "
                        f"after {timeout:.0f}s")
                self._wake.wait(timeout=remaining)

    # ------------------------------------------------------------------
    # Executor protocol
    def execute(self, tasks: Sequence[ExecutorTask]):
        """Queue every task for the fleet; yield completions as they land."""
        if self._closing.is_set():
            raise RuntimeError("executor is closed")
        self._start()
        with self._wake:
            submission = _Submission(self._next_submission_id)
            self._next_submission_id += 1
            for task in tasks:
                self._pending.append(_Task(
                    id=self._next_task_id, task=task,
                    spec_dict=task.spec.to_dict(), submission=submission))
                self._next_task_id += 1
            self._wake.notify_all()
        emitted = 0
        fleet_empty_since: Optional[float] = None
        while emitted < len(tasks):
            try:
                completion = submission.completions.get(timeout=0.25)
            except queue.Empty:
                with self._lock:
                    fleet_empty = not self._workers
                    closing = self._closing.is_set()
                if not fleet_empty:
                    fleet_empty_since = None
                    continue
                now = time.monotonic()
                if fleet_empty_since is None:
                    fleet_empty_since = now
                if closing or now - fleet_empty_since >= self.worker_wait:
                    self._fail_queued(submission,
                                      reason="executor closing" if closing else
                                      f"no workers connected for "
                                      f"{self.worker_wait:.0f}s")
                continue
            emitted += 1
            yield completion

    def _fail_queued(self, submission: _Submission, reason: str) -> None:
        """Fail ``submission``'s still-queued tasks (fleet gone for good)."""
        with self._lock:
            kept: Deque[_Task] = deque()
            for task in self._pending:
                if task.submission is submission and not task.done:
                    task.done = True
                    spec = task.task.spec
                    failure = JobFailure(
                        job_hash=spec.content_hash(),
                        label=spec.display_name(),
                        error=f"distributed execution failed: {reason} "
                              f"(after {task.attempts} attempt(s))",
                        host="",
                        last_heartbeat=None,
                    )
                    submission.completions.put(ExecutorCompletion(
                        task.task.index, failure, None))
                else:
                    kept.append(task)
            self._pending = kept

    # ------------------------------------------------------------------
    # accept / reader
    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return                    # listener closed
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._accepted.add(sock)
            threading.Thread(target=self._reader, args=(Connection(sock),),
                             name="dist-reader", daemon=True).start()

    def _reader(self, connection: Connection) -> None:
        worker: Optional[_Worker] = None
        try:
            hello = connection.recv()
            if not hello or hello.get("type") != "hello":
                connection.close()
                return
            with self._wake:
                worker = _Worker(self._next_worker_id, connection,
                                 host=str(hello.get("host", "?")),
                                 pid=int(hello.get("pid", 0)))
                self._next_worker_id += 1
                self._workers[worker.id] = worker
                self._wake.notify_all()
            connection.send({
                "type": "welcome",
                "worker": worker.id,
                "heartbeat": self.heartbeat_interval,
            })
            if RECORDER.enabled:
                RECORDER.count("dist.workers_joined")
            while True:
                message = connection.recv()
                if message is None:
                    return
                worker.last_seen = time.time()
                kind = message.get("type")
                if kind == "heartbeat":
                    continue
                if kind == "next":
                    with self._wake:
                        if not worker.alive:
                            return
                        worker.idle_since = time.monotonic()
                        self._idle.append(worker)
                        self._wake.notify_all()
                elif kind == "result":
                    self._handle_result(worker, message)
        except (ProtocolError, OSError):
            pass                          # treated as a disconnect
        finally:
            if worker is not None:
                self._worker_lost(worker)
            else:
                connection.close()
            with self._lock:
                self._accepted.discard(connection.sock)

    def _handle_result(self, worker: _Worker, message: Dict) -> None:
        with self._lock:
            task = worker.outstanding.pop(int(message["task"]), None)
            if task is None or task.done:
                # A worker answering a task it no longer owns (already failed
                # over, or answered twice): drop it -- exactly-once emission.
                if RECORDER.enabled:
                    RECORDER.count("dist.results_ignored")
                return
            task.done = True
        if message.get("ok"):
            outcome: Union[JobResult, JobFailure] = JobResult.from_dict(
                message["result"])
        else:
            outcome = JobFailure.from_dict(message["failure"])
        payload = message.get("telemetry")
        if payload is not None:
            outcome = replace(outcome, telemetry=payload)
        task.submission.completions.put(ExecutorCompletion(
            task.task.index, outcome, task.submitted_wall or None))

    def _worker_lost(self, worker: _Worker) -> None:
        """Tear one worker down and fail over everything it still owed."""
        with self._wake:
            if not worker.alive:
                return                    # second notification of one death
            worker.alive = False
            self._workers.pop(worker.id, None)
            try:
                self._idle.remove(worker)
            except ValueError:
                pass
            owed = [task for task in worker.outstanding.values()
                    if not task.done]
            worker.outstanding.clear()
            for task in owed:
                task.attempts += 1
                if task.attempts > self.max_retries:
                    task.done = True
                    spec = task.task.spec
                    failure = JobFailure(
                        job_hash=spec.content_hash(),
                        label=spec.display_name(),
                        error=(f"worker {worker.name} died holding this job "
                               f"(attempt {task.attempts}, retries exhausted)"),
                        host=worker.name,
                        last_heartbeat=worker.last_seen,
                    )
                    task.submission.completions.put(ExecutorCompletion(
                        task.task.index, failure, task.submitted_wall or None))
                    if RECORDER.enabled:
                        RECORDER.count("dist.tasks_abandoned")
                else:
                    # Front of the queue: a retry should not wait behind the
                    # rest of the grid.
                    self._pending.appendleft(task)
                    if RECORDER.enabled:
                        RECORDER.count("dist.tasks_requeued")
            self._wake.notify_all()
        worker.connection.close()
        if RECORDER.enabled:
            RECORDER.count("dist.workers_lost")

    # ------------------------------------------------------------------
    # dispatch / monitor
    def _chunk_size(self, pending: int, workers: int) -> int:
        """Guided self-scheduling: half the fair share, clamped."""
        fair = -(-pending // (2 * max(workers, 1)))     # ceil division
        return max(1, min(self.max_chunk, fair))

    def _dispatch_loop(self) -> None:
        while True:
            with self._wake:
                while not self._closing.is_set() and not (self._pending and self._idle):
                    self._wake.wait(timeout=0.5)
                if self._closing.is_set():
                    return
                worker = self._idle.popleft()
                if not worker.alive:
                    continue
                size = self._chunk_size(len(self._pending), len(self._workers))
                chunk = [self._pending.popleft()
                         for _ in range(min(size, len(self._pending)))]
                now_wall = time.time()
                for task in chunk:
                    task.submitted_wall = now_wall
                    worker.outstanding[task.id] = task
                steal_wait = (time.monotonic() - worker.idle_since
                              if worker.idle_since is not None else 0.0)
                worker.idle_since = None
                message = {"type": "chunk", "tasks": [
                    {"task": task.id, "spec": task.spec_dict,
                     "engine": task.task.engine} for task in chunk]}
            if RECORDER.enabled:
                RECORDER.observe("dist.steal_wait_seconds", steal_wait)
                RECORDER.observe("dist.chunk_size", float(len(chunk)))
                RECORDER.count("dist.chunks_dispatched")
                RECORDER.count("dist.tasks_dispatched", len(chunk))
            try:
                # Outside the lock: sendall can block on a slow link.
                worker.connection.send(message)
            except OSError:
                self._worker_lost(worker)  # re-queues the chunk immediately

    def _monitor_loop(self) -> None:
        while not self._closing.wait(self.heartbeat_interval):
            cutoff = time.time() - self.heartbeat_timeout
            with self._lock:
                stale = [worker for worker in self._workers.values()
                         if worker.last_seen < cutoff]
            for worker in stale:
                # Closing the socket unblocks the reader, which runs the
                # one true failure path (_worker_lost).
                worker.connection.close()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the fleet down: workers told to exit, sockets torn down.

        Idempotent.  Queued-but-unfinished tasks of any still-iterating
        ``execute()`` call fail with "executor closing".
        """
        if self._closing.is_set():
            return
        with self._wake:
            self._closing.set()
            workers = list(self._workers.values())
            self._wake.notify_all()
        for worker in workers:
            try:
                worker.connection.send({"type": "shutdown"})
            except OSError:
                pass
            worker.connection.close()
        shutdown_and_close(self._listener)
        for process in self._local_processes:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)
        for thread in self._threads:
            thread.join(timeout=5.0)      # backstop; every loop was woken

    def __del__(self):  # best-effort: don't leak sockets or processes
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass
