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
  this process (:func:`process_context`: ``fork`` on Linux), so a local
  fleet inherits the imported simulator instead of every worker importing
  ``repro`` again, and attaches it over a ``socketpair`` -- a local worker
  never dials the listener.  The dispatch, monitor and reader threads start
  on first use (:meth:`~DistributedExecutor.wait_for_workers` or
  :meth:`~DistributedExecutor.execute`), so the usual sequence --
  construct, spawn, wait -- forks a process with no coordinator thread in
  it.  Workers on other hosts join with ``repro worker --connect``;
  :class:`LocalFleet` takes no such joins.
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

import multiprocessing
import os
import queue
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.dist.protocol import (
    Connection,
    ProtocolError,
    shutdown_and_close,
)
from repro.campaign.dist.worker import run_worker
from repro.campaign.executor import ExecutorCompletion, ExecutorTask
from repro.campaign.result import JobFailure, JobResult
from repro.telemetry.recorder import RECORDER
from repro.trace.events import TraceEvent


def process_context():
    """The multiprocessing context local workers start from.

    ``fork`` on Linux, where workers inherit the imported simulator for
    free; the platform default elsewhere (macOS forks past Objective-C/numpy
    state and aborts).
    """
    prefer_fork = (sys.platform.startswith("linux")
                   and "fork" in multiprocessing.get_all_start_methods())
    return multiprocessing.get_context("fork" if prefer_fork else None)


def _open_fds() -> List[int]:
    """The descriptors this process holds open (Linux ``/proc``), less the
    listing's own, which is closed by the time it returns."""
    listed = [int(name) for name in os.listdir("/proc/self/fd")]
    return [fd for fd in listed if os.path.exists(f"/proc/self/fd/{fd}")]


def _local_worker(sock: socket.socket, held: Sequence[int]) -> None:
    """The whole life of one local fleet worker (runs in the child).

    Closes (never ``shutdown``s) every descriptor the parent ``held`` when
    it started this child -- the coordinator's sockets, an HTTP listener, a
    queue journal -- but stdio and ``sock``.  Multiprocessing's own pipes
    are newer and stay: closing the one ``popen_fork`` leaves here would
    mark the parent's sentinel ready early and block a timed ``join``.
    Then points fd 1 at ``/dev/null`` and serves the coordinator on
    ``sock``.  The bootstrap turns a return into exit 0 and an exception
    into exit 1, and the child leaves through ``os._exit``: never into the
    parent's stack or its ``atexit`` handlers.
    """
    for fd in held:
        if fd > 2 and fd != sock.fileno():
            try:
                os.close(fd)
            except OSError:
                pass                      # another parent thread closed it
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    run_worker(Connection(sock))


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

    def __init__(self):
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

    The owner must call :meth:`close`: each coordinator thread runs a bound
    method, so once they start the executor stays reachable and garbage
    collection never ends its threads, sockets or workers.

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
        self._closing = threading.Event()
        self._local_processes: List[_LocalWorker] = []
        self._unread: List[_Worker] = []   # attached; reader not started yet
        self._lost: Optional[_Worker] = None
        self._listener = self._listen(host, port)
        self._threads: List[threading.Thread] = []

    def _listen(self, host: str, port: int) -> Optional[socket.socket]:
        """The socket other hosts' workers join through."""
        return socket.create_server((host, port))

    def _start(self) -> None:
        """Start the coordinator's threads, once, and a reader per worker
        attached since.

        Deferred from ``__init__`` so :meth:`spawn_local_workers` can fork
        before any of them exists; until then a worker's ``hello`` waits in
        the listener's backlog or its socketpair.
        """
        with self._lock:
            if self._closing.is_set():
                return
            if not self._threads:
                loops = {"dist-dispatch": self._dispatch_loop,
                         "dist-monitor": self._monitor_loop}
                if self._listener is not None:
                    loops["dist-accept"] = self._accept_loop
                self._threads = [
                    threading.Thread(target=loop, name=name, daemon=True)
                    for name, loop in loops.items()]
                for thread in self._threads:
                    thread.start()
            unread, self._unread = self._unread, []
            for worker in unread:
                worker.last_seen = time.time()   # silent until now by design
                threading.Thread(target=self._reader,
                                 args=(worker.connection, worker),
                                 name="dist-reader", daemon=True).start()

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` workers should connect to."""
        return self._listener.getsockname()[:2]

    @property
    def worker_count(self) -> int:
        """Workers attached or joined and not lost."""
        with self._lock:
            return len(self._workers)

    def spawn_local_workers(self, count: int) -> List[_LocalWorker]:
        """Start ``count`` worker processes on this host, attached to this
        coordinator; they exit when the coordinator closes.

        Each is a child of this process (:func:`process_context`) running
        :func:`_local_worker` on one end of a ``socketpair``; the other end
        is registered at once, so it counts for :meth:`wait_for_workers`
        before it says a word.  Starting one flushes this process's
        ``stdout`` and ``stderr`` first, so no child writes their buffers
        again.  Call it before :meth:`wait_for_workers` or :meth:`execute`
        start the coordinator's threads: a fork of a threaded process may
        inherit a lock another thread held.
        """
        context = process_context()
        forks = context.get_start_method() == "fork"
        started = []
        for _ in range(count):
            ours, theirs = socket.socketpair()
            # daemon: an interpreter exiting without close() terminates the
            # worker instead of waiting for it at exit.
            process = context.Process(
                target=_local_worker,
                args=(theirs, _open_fds() if forks else ()),
                name="repro-fleet-worker", daemon=True)
            process.start()
            theirs.close()
            started.append(_LocalWorker(process))
            worker = self._register(Connection(ours), socket.gethostname(),
                                    process.pid)
            with self._lock:
                self._local_processes.append(started[-1])
                self._unread.append(worker)
        if self._threads:
            self._start()
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
            submission = _Submission()
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
                if closing:
                    self._fail_queued(submission, "executor closing")
                elif self._listener is None:    # nobody else can join
                    self._fail_queued(submission, "every local worker is lost",
                                      self._lost)
                elif now - fleet_empty_since >= self.worker_wait:
                    self._fail_queued(submission, f"no workers connected for "
                                                  f"{self.worker_wait:.0f}s")
                continue
            emitted += 1
            yield completion

    def _fail_queued(self, submission: _Submission, reason: str,
                     worker: Optional[_Worker] = None) -> None:
        """Fail ``submission``'s still-queued tasks (fleet gone for good)."""
        with self._lock:
            kept: Deque[_Task] = deque()
            for task in self._pending:
                if task.submission is submission and not task.done:
                    self._abandon(task, f"distributed execution failed: "
                                        f"{reason} (after {task.attempts} "
                                        f"attempt(s))", worker)
                else:
                    kept.append(task)
            self._pending = kept

    def _abandon(self, task: _Task, error: str,
                 worker: Optional[_Worker]) -> None:
        """Answer ``task`` with a failure naming ``worker`` (lock held)."""
        task.done = True
        spec = task.task.spec
        failure = JobFailure(
            job_hash=spec.content_hash(), label=spec.display_name(),
            error=error, host=worker.name if worker else "",
            last_heartbeat=worker.last_seen if worker else None)
        task.submission.completions.put(ExecutorCompletion(
            task.task.index, failure, task.submitted_wall or None))

    # ------------------------------------------------------------------
    # accept / reader
    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return                    # listener closed
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(target=self._reader, args=(Connection(sock),),
                             name="dist-reader", daemon=True).start()

    def _register(self, connection: Connection, host: str,
                  pid: int) -> _Worker:
        with self._wake:
            worker = _Worker(self._next_worker_id, connection, host, pid)
            self._next_worker_id += 1
            self._workers[worker.id] = worker
            self._wake.notify_all()
        if RECORDER.enabled:
            RECORDER.count("dist.workers_joined")
        return worker

    def _reader(self, connection: Connection,
                worker: Optional[_Worker] = None) -> None:
        """Serve one worker; ``worker`` if it was attached, not dialled."""
        try:
            hello = connection.recv()
            if not hello or hello.get("type") != "hello":
                return
            if worker is None:
                worker = self._register(connection,
                                        host=str(hello.get("host", "?")),
                                        pid=int(hello.get("pid", 0)))
            connection.send({
                "type": "welcome",
                "worker": worker.id,
                "heartbeat": self.heartbeat_interval,
            })
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
            events = message.get("events")
            if events is not None:
                outcome = replace(outcome, events=tuple(
                    TraceEvent.from_dict(event) for event in events))
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
            self._lost = worker
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
                    self._abandon(task, f"worker {worker.name} died holding "
                                        f"this job (attempt {task.attempts}, "
                                        f"retries exhausted)", worker)
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
        if self._listener is not None:
            shutdown_and_close(self._listener)
        for process in self._local_processes:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)
        for thread in self._threads:
            thread.join(timeout=5.0)      # backstop; every loop was woken


class LocalFleet(DistributedExecutor):
    """A fleet whose hosts are all this one: forked workers, no listener,
    so no other process can say ``hello`` and hand the runner results to
    journal.  Nobody can join late either: once the last worker is lost,
    ``execute()`` fails what is queued at once, naming that worker.  Its
    owner is a :class:`~repro.campaign.executor.LocalExecutor`, which closes
    it.
    """

    def _listen(self, host: str, port: int) -> None:
        return None
