"""The persistent job queue: one append-only JSONL journal of state changes.

Every lifecycle transition of every job appends exactly one JSON object to
``jobs.jsonl`` -- the same :class:`~repro.campaign.journal.Journal` (fsynced
appends with tail repair, tolerant reads) as the campaign cache and scenario
sinks, so a ``kill -9``'d server can at worst lose the line it was
mid-writing, never corrupt the file.

Each line is read through :func:`read_queue_line`, which keys it by job id
and refuses it -- like the other journals' rules refuse theirs -- unless it
is a well-typed transition.  Loading merges the transitions per job id: the
first ``pending`` record carries the (pre-validated) request, later records
update the state.  A job that was ``running`` when the process died folds
back to ``pending`` --
**that is the resume path**: a restarted server re-enqueues every job that
never reached a terminal state, in original submission order, and simply
keeps going.  Completed jobs keep their terminal record (result payload
included) so ``GET /jobs/{id}`` survives restarts too.

The queue path resolves to absolute at creation time, like the scenario
sink's: the daemon may change its working directory after opening the queue.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from repro.campaign.journal import Journal
from repro.service.schemas import Job, JobRequest, new_job_id
from repro.telemetry.recorder import RECORDER

#: Bump when the queue journal layout changes; older records are ignored.
QUEUE_SCHEMA_VERSION = 1

#: Environment variable overriding the service state directory.
SERVICE_DIR_ENV = "REPRO_SERVICE_DIR"
#: Default directory (relative to the working directory) for service state.
DEFAULT_SERVICE_DIR = "service"
#: Queue journal file name inside the service directory.
QUEUE_FILE_NAME = "jobs.jsonl"
#: Every state a job can be journaled in.
STATES = ("pending", "running", "done", "failed")


def default_service_dir() -> Path:
    """The service state directory (``$REPRO_SERVICE_DIR`` aware, absolute)."""
    override = os.environ.get(SERVICE_DIR_ENV)
    base = Path(override).expanduser() if override else Path(DEFAULT_SERVICE_DIR)
    return base if base.is_absolute() else Path.cwd() / base


def default_queue_path() -> Path:
    """Where the job queue journal lives by default."""
    return default_service_dir() / QUEUE_FILE_NAME


class Transition(NamedTuple):
    """One validated queue journal line."""

    state: str
    time: float
    request: Optional[JobRequest] = None   # pending lines only
    client: str = ""
    result: object = None
    error: Optional[str] = None


def read_queue_line(record: Mapping, end: int, text: str,
                    ) -> Optional[Tuple[str, Transition]]:
    """The queue journal's read rule: ``job id -> transition``.

    Refuses a line from another queue schema, without a string job id or a
    known state, whose ``time`` is not a finite number, or -- for a pending
    line -- whose request does not parse.
    """
    job_id, state = record.get("job"), record.get("state")
    stamp = record.get("time", 0.0)
    if (type(record.get("queue_schema")) is not int
            or record["queue_schema"] != QUEUE_SCHEMA_VERSION
            or type(job_id) is not str or state not in STATES
            or type(stamp) not in (int, float)):
        return None
    try:
        stamp = float(stamp)
        if not math.isfinite(stamp):
            return None
        if state != "pending":
            error = record.get("error")
            return job_id, Transition(state, stamp, result=record.get("result"),
                                      error=None if error is None else str(error))
        request = record.get("request") or {}
        if not isinstance(request, dict):
            return None
        return job_id, Transition(state, stamp,
                                  request=JobRequest.from_dict(request),
                                  client=str(record.get("client", "")))
    except (TypeError, ValueError, OverflowError):
        return None


class JobQueue:
    """Journal-backed FIFO of service jobs, resumable across restarts."""

    def __init__(self, path: Optional[Union[str, Path]] = None):
        path = Path(path).expanduser() if path is not None else default_queue_path()
        self.path = path if path.is_absolute() else Path.cwd() / path
        self._jobs: Dict[str, Job] = {}
        self._pending: List[str] = []
        self._journal = Journal(self.path, read_queue_line, fsync=True)
        self.recovered = 0              # jobs folded running -> pending on load
        self._load()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Merge the journal's transitions into current job state."""
        self._jobs.clear()
        self._pending.clear()
        self.recovered = 0
        for _, read, _ in self._journal.read():
            if read is None:
                continue
            job_id, step = read
            if step.state == "pending":
                self._jobs[job_id] = Job(id=job_id, request=step.request,
                                         client=step.client, submitted=step.time)
                continue
            job = self._jobs.get(job_id)
            if job is None:
                continue               # transition without a pending record
            job.state = step.state
            if step.state == "running":
                job.started = step.time
            else:
                job.finished = step.time
                job.result = step.result
                job.error = step.error
        for job in self._jobs.values():
            if job.state == "running":
                # The previous server died mid-job: nothing terminal was ever
                # journaled, so the work is simply still owed.
                job.state = "pending"
                job.started = None
                self.recovered += 1
            if job.state == "pending":
                self._pending.append(job.id)
        self._pending.sort(key=lambda job_id: self._jobs[job_id].submitted)

    def _append(self, record: Dict[str, object]) -> None:
        record = {"queue_schema": QUEUE_SCHEMA_VERSION,
                  "time": time.time(), **record}
        self._journal.append([record])

    # ------------------------------------------------------------------
    def submit(self, request: JobRequest, client: str = "") -> Job:
        """Durably enqueue one validated request; returns the new job."""
        job = Job(id=new_job_id(), request=request, client=client,
                  submitted=time.time())
        self._append({"job": job.id, "state": "pending",
                      "request": request.to_dict(), "client": client})
        self._jobs[job.id] = job
        self._pending.append(job.id)
        RECORDER.count("service.jobs.submitted")
        return job

    def claim(self) -> Optional[Job]:
        """Pop the oldest pending job and durably mark it running."""
        if not self._pending:
            return None
        job = self._jobs[self._pending.pop(0)]
        job.state = "running"
        job.started = time.time()
        self._append({"job": job.id, "state": "running"})
        return job

    def finish(self, job_id: str, result: Dict[str, object]) -> Job:
        """Durably record one job's successful terminal state."""
        return self._terminal(job_id, "done", result=result)

    def fail(self, job_id: str, error: str) -> Job:
        """Durably record one job's failure."""
        return self._terminal(job_id, "failed", error=error)

    def _terminal(self, job_id: str, state: str,
                  result: Optional[Dict[str, object]] = None,
                  error: Optional[str] = None) -> Job:
        job = self._jobs[job_id]
        job.state = state
        job.finished = time.time()
        job.result = result
        job.error = error
        record: Dict[str, object] = {"job": job.id, "state": state}
        if result is not None:
            record["result"] = result
        if error is not None:
            record["error"] = error
        self._append(record)
        RECORDER.count(f"service.jobs.{state}")
        return job

    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every known job, in submission order."""
        return sorted(self._jobs.values(), key=lambda job: job.submitted)

    def pending_count(self) -> int:
        return len(self._pending)

    def counts(self) -> Dict[str, int]:
        """Jobs per state (the health endpoint's queue summary)."""
        counts = {state: 0 for state in STATES}
        for job in self._jobs.values():
            counts[job.state] += 1
        return counts
