"""The persistent job queue: one append-only JSONL journal of state changes.

Every lifecycle transition of every job appends exactly one JSON object to
``jobs.jsonl`` -- the same storage discipline (and the same shared helpers:
:class:`~repro.campaign.journal.JournalWriter` fsynced appends with tail
repair, :func:`~repro.campaign.journal.iter_journal_lines` tolerant reads)
as the campaign cache and scenario sinks, so a ``kill -9``'d server can at
worst lose the line it was mid-writing, never corrupt the file.

Loading folds the journal last-wins per job id: the first ``pending`` record
carries the (pre-validated) request, later records update the state.  A job
that was ``running`` when the process died folds back to ``pending`` --
**that is the resume path**: a restarted server re-enqueues every job that
never reached a terminal state, in original submission order, and simply
keeps going.  Completed jobs keep their terminal record (result payload
included) so ``GET /jobs/{id}`` survives restarts too.

The queue path resolves to absolute at creation time, like the scenario
sink's: the daemon may change its working directory after opening the queue.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.campaign.journal import JournalWriter, iter_journal_lines
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


def default_service_dir() -> Path:
    """The service state directory (``$REPRO_SERVICE_DIR`` aware, absolute)."""
    override = os.environ.get(SERVICE_DIR_ENV)
    base = Path(override).expanduser() if override else Path(DEFAULT_SERVICE_DIR)
    return base if base.is_absolute() else Path.cwd() / base


def default_queue_path() -> Path:
    """Where the job queue journal lives by default."""
    return default_service_dir() / QUEUE_FILE_NAME


class JobQueue:
    """Journal-backed FIFO of service jobs, resumable across restarts."""

    def __init__(self, path: Optional[Union[str, Path]] = None):
        path = Path(path).expanduser() if path is not None else default_queue_path()
        self.path = path if path.is_absolute() else Path.cwd() / path
        self._jobs: Dict[str, Job] = {}
        self._pending: List[str] = []
        self._writer = JournalWriter(self.path, fsync=True)
        self.recovered = 0              # jobs folded running -> pending on load
        self._load()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Fold the journal into current job state (last record per id wins)."""
        self._jobs.clear()
        self._pending.clear()
        self.recovered = 0
        for record in iter_journal_lines(self.path):
            if record is None or record.get("queue_schema") != QUEUE_SCHEMA_VERSION:
                continue
            job_id = record.get("job")
            state = record.get("state")
            if not isinstance(job_id, str) or state not in (
                    "pending", "running", "done", "failed"):
                continue
            if state == "pending":
                try:
                    request = JobRequest.from_dict(record.get("request") or {})
                except (TypeError, ValueError):
                    continue
                self._jobs[job_id] = Job(
                    id=job_id, request=request, state="pending",
                    client=str(record.get("client", "")),
                    submitted=float(record.get("time", 0.0)))
                continue
            job = self._jobs.get(job_id)
            if job is None:
                continue               # transition without a pending record
            job.state = state
            stamp = float(record.get("time", 0.0))
            if state == "running":
                job.started = stamp
            else:
                job.finished = stamp
                job.result = record.get("result")
                error = record.get("error")
                job.error = None if error is None else str(error)
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
        self._writer.append([record])

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
        counts = {state: 0 for state in ("pending", "running", "done", "failed")}
        for job in self._jobs.values():
            counts[job.state] += 1
        return counts
