"""The fleet worker: steal chunks, simulate, send the outcomes back.

:func:`run_worker` is the whole lifecycle of one fleet worker: a
``repro worker --connect`` process (how a host joins a remote coordinator),
or a local worker that
:meth:`~repro.campaign.dist.coordinator.DistributedExecutor.spawn_local_workers`
forked from the coordinator's own process and attached over a socketpair:

1. dial the coordinator (a local worker is handed its connection),
   introduce itself (``hello``), learn the heartbeat cadence from the
   ``welcome``;
2. loop: send ``next`` and *block* until a chunk arrives (pull-based
   stealing -- an idle worker costs one parked socket, not a poll loop);
3. per chunk: :func:`~repro.campaign.worker.execute_job` for every task
   on the task's engine (the coordinator's, not this worker's default) and
   one ``result`` message per task, carrying a traced job's events too.
   The worker never touches a cache: the coordinator's runner resolved the
   campaign before dispatch and journals what comes back;
4. exit on ``shutdown`` or when the coordinator hangs up.

A heartbeat thread shares the connection (sends are lock-serialised), so a
worker grinding through a long simulation still reads as alive.  Losing the
coordinator ends the worker -- its unanswered tasks are the coordinator's to
re-queue.

``max_tasks`` exists for fault-injection: after executing that many jobs
the worker drops its socket *without a word*, exactly like a SIGKILL --
tests and the CI chaos job use it to prove the fail-over path.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
from typing import Optional, Union

from repro.campaign.dist.protocol import Connection, ProtocolError, connect
from repro.campaign.result import JobFailure, JobResult
from repro.campaign.spec import JobSpec
from repro.campaign.worker import execute_job


def _dial(coordinator: Union[str, tuple], timeout: float) -> Connection:
    """Connect, retrying refusals until ``timeout`` expires.

    A fleet is usually launched as one salvo -- coordinator and workers in
    the same breath -- so a worker that arrives a beat early must wait for
    the listener instead of dying on ECONNREFUSED.
    """
    deadline = time.monotonic() + timeout
    delay = 0.05
    while True:
        remaining = deadline - time.monotonic()
        try:
            return connect(coordinator, timeout=max(remaining, 0.05))
        except OSError:
            if time.monotonic() + delay >= deadline:
                raise
            time.sleep(delay)
            delay = min(delay * 2, 1.0)


def run_worker(coordinator: Union[str, tuple, Connection],
               max_tasks: Optional[int] = None,
               connect_timeout: float = 30.0) -> int:
    """Serve one coordinator until it shuts the fleet down.

    ``coordinator`` is an address to dial, or a connection already attached
    to it.  Returns the number of jobs this worker simulated.  ``max_tasks``
    is the fault-injection kill switch described in the module docstring.
    """
    connection = (coordinator if isinstance(coordinator, Connection)
                  else _dial(coordinator, connect_timeout))
    stop = threading.Event()
    executed = 0
    try:
        connection.send({"type": "hello", "host": socket.gethostname(),
                         "pid": os.getpid()})
        welcome = connection.recv()
        if not welcome or welcome.get("type") != "welcome":
            raise ProtocolError(f"expected welcome, got {welcome!r}")
        interval = float(welcome.get("heartbeat") or 1.0)

        def heartbeat() -> None:
            while not stop.wait(interval):
                try:
                    connection.send({"type": "heartbeat"})
                except OSError:
                    return
        threading.Thread(target=heartbeat, name="worker-heartbeat",
                         daemon=True).start()

        while True:
            connection.send({"type": "next"})
            message = connection.recv()
            if message is None or message.get("type") == "shutdown":
                return executed
            if message.get("type") != "chunk":
                continue
            for entry in message.get("tasks", []):
                if max_tasks is not None and executed >= max_tasks:
                    # Fault injection: vanish mid-chunk, as a SIGKILL would.
                    connection.close()
                    return executed
                spec = JobSpec.from_dict(entry["spec"])
                try:
                    outcome = execute_job(spec, engine=entry.get("engine"))
                except Exception as error:  # noqa: BLE001 - not the worker's end
                    outcome = JobFailure(
                        job_hash=spec.content_hash(), label=spec.display_name(),
                        error=f"{type(error).__name__}: {error}",
                        traceback=traceback.format_exc(),
                        host=f"{socket.gethostname()}/pid{os.getpid()}",
                        last_heartbeat=time.time())
                executed += 1
                reply = {"type": "result", "task": entry["task"]}
                if isinstance(outcome, JobResult):
                    reply.update(ok=True, result=outcome.to_dict())
                    if outcome.events is not None:
                        reply["events"] = [event.as_dict()
                                           for event in outcome.events]
                else:
                    reply.update(ok=False, failure=outcome.to_dict())
                payload = getattr(outcome, "telemetry", None)
                if payload is not None:
                    reply["telemetry"] = payload
                connection.send(reply)
    except (ProtocolError, OSError):
        return executed                   # coordinator is gone; so are we
    finally:
        stop.set()
        connection.close()
