"""Streaming scenario result sink: one JSONL record per completed job.

The :class:`ResultSink` is the persistence layer of a scenario run.  Every
grid point the planner finishes becomes one JSON object (the job key, the
full spec, the result summary and the planner's metadata tags) in the sink
file, fsynced under the contract :meth:`ResultSink.append` states -- so a
run killed mid-grid leaves a readable journal behind, and a subsequent
``repro scenario resume`` executes only the jobs whose keys are not yet
present.  A partially written trailing line (the usual artefact of a hard
kill) is refused by the sink's read rule :func:`read_sink_line` and skipped
on load, exactly like the campaign cache journal.

The sink is scoped per ``(scenario, scale)`` pair by default (see
:func:`default_sink_path`); records written under a different simulator
version are skipped on load, so a version bump forces re-simulation without
touching the file.

Each line is ``json.dumps(record.to_dict(), sort_keys=True)``, composed
(:meth:`SinkRecord.to_line`) around the result's JSON
(:meth:`JobResult.to_json`): for a cache-served result, the ``result`` text
of the cache line it was read from.  A record the planner built
(:meth:`SinkRecord.of`) adds its spec's JSON, composed around the config
JSON memoised on its ``ArchConfig`` the way the spec's content hash is.  A
sink stays self-contained: every line holds its whole spec and result.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.campaign.journal import Journal, stamped_key
from repro.campaign.result import JobResult, slot_setters
from repro.campaign.spec import (CACHE_SCHEMA_VERSION, JobSpec, RawJSON,
                                 canonical_json, simulator_version)
from repro.telemetry.recorder import RECORDER

#: Environment variable overriding the directory scenario sinks live in.
SINK_DIR_ENV = "REPRO_SCENARIO_DIR"
#: Default directory (relative to the working directory) for scenario sinks.
DEFAULT_SINK_DIR = "scenario-runs"


def default_sink_dir() -> Path:
    """The directory scenario sinks default to (``$REPRO_SCENARIO_DIR`` aware).

    Always absolute: a long-running process (the service daemon) may change
    its working directory after sinks were opened, and a CWD-relative default
    would silently scatter journals -- and make ``discover_journals`` track
    different files than were written.
    """
    override = os.environ.get(SINK_DIR_ENV)
    base = Path(override).expanduser() if override else Path(DEFAULT_SINK_DIR)
    return base if base.is_absolute() else Path.cwd() / base


def default_sink_path(scenario_name: str, scale: str) -> Path:
    """Where ``repro scenario run`` persists a scenario's records by default."""
    return default_sink_dir() / f"{scenario_name}-{scale}.jsonl"


class SpecFields(Mapping):
    """``job.to_dict()`` as a read-only mapping, built on first read.

    The ``spec`` of a record the planner built: the record keeps the
    :class:`JobSpec` itself rather than a copy of its fields, and writes
    its line from the spec's composed JSON (:meth:`JobSpec.to_json`).
    """

    __slots__ = ("job", "_fields")

    def __init__(self, job: JobSpec):
        self.job = job
        self._fields: Optional[Dict[str, object]] = None

    def _dict(self) -> Dict[str, object]:
        if self._fields is None:
            self._fields = self.job.to_dict()
        return self._fields

    def __getitem__(self, name: str) -> object:
        return self._dict()[name]

    def __iter__(self):
        return iter(self._dict())

    def __len__(self) -> int:
        return len(self._dict())

    def __repr__(self) -> str:
        return repr(self._dict())


@dataclass(frozen=True, slots=True)
class SinkRecord:
    """One completed grid point: the spec that named it plus its result.

    ``key`` is the planner's execution key: the spec's content hash, prefixed
    with the engine name when the scenario pins one (the hash deliberately
    ignores the engine -- both produce bit-identical numbers -- but an
    engine-comparison scenario must execute the point once per engine).
    ``meta`` carries the planner's axis tags (strategy label, seed, engine,
    ...) so analysis hooks never have to re-derive them from labels.
    """

    key: str
    job_hash: str
    scenario: str
    result: JobResult
    spec: Mapping[str, object] = field(default_factory=dict)
    meta: Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def of(cls, key: str, scenario: str, spec: JobSpec, result: JobResult,
           meta: Mapping[str, object]) -> "SinkRecord":
        """The record of ``spec``'s point, able to compose its own line."""
        return cls(key=key, job_hash=spec.content_hash(), scenario=scenario,
                   result=result, spec=SpecFields(spec), meta=meta)

    def to_line(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True)``: this record's line,
        composed around the result's and (for a record built by :meth:`of`)
        the spec's JSON."""
        spec = self.spec
        return canonical_json({
            "schema": CACHE_SCHEMA_VERSION,
            "simulator": simulator_version(),
            "key": self.key,
            "hash": self.job_hash,
            "scenario": self.scenario,
            "spec": spec.job.to_json() if type(spec) is SpecFields else dict(spec),
            "meta": dict(self.meta),
            "result": RawJSON(self.result.to_json()),
        })

    def to_dict(self) -> Dict[str, object]:
        """Serialise to plain JSON types (one sink line)."""
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "simulator": simulator_version(),
            "key": self.key,
            "hash": self.job_hash,
            "scenario": self.scenario,
            "spec": dict(self.spec),
            "meta": dict(self.meta),
            "result": self.result.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SinkRecord":
        """Inverse of :meth:`to_dict`, built in one step like
        :meth:`JobResult.from_dict` (whose checks the result gets)."""
        set_key, set_job_hash, set_scenario, set_result, set_spec, set_meta = (
            _SETTERS)
        record = object.__new__(cls)
        set_key(record, str(data["key"]))
        set_job_hash(record, str(data["hash"]))
        set_scenario(record, str(data["scenario"]))
        set_result(record, JobResult.from_dict(data["result"]))
        set_spec(record, dict(data.get("spec", {})))
        set_meta(record, dict(data.get("meta", {})))
        return record


_SETTERS = slot_setters(SinkRecord)


def read_sink_line(record: Mapping, end: int, text: str,
                   ) -> Optional[Tuple[Tuple[str, str, int], SinkRecord]]:
    """The sink journal's read rule: ``(key, simulator, schema) -> record``."""
    key = stamped_key(record, "key")
    if key is None:
        return None
    try:
        return key, SinkRecord.from_dict(record)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None


class ResultSink:
    """Append-only JSONL store of :class:`SinkRecord` objects."""

    def __init__(self, path: Union[str, Path]):
        # Resolved to absolute at creation time: appends must keep landing in
        # the same file even if the process later calls os.chdir().
        path = Path(path).expanduser()
        self.path = path if path.is_absolute() else Path.cwd() / path
        self.appended = 0          # records written by this instance
        self.skipped = 0           # unusable lines seen by the last load()
        self._journal = Journal(self.path, read_sink_line, fsync=True)

    # ------------------------------------------------------------------
    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> Dict[str, SinkRecord]:
        """Read the journal into ``{key: record}`` (last record per key wins).

        A streaming fold: the journal is read one line at a time.
        ``skipped`` counts the lines the read rule refused (corrupt, partial
        writes) plus the records of another simulator or schema version.
        """
        fold = self._journal.fold()
        records = fold.current()
        self.skipped = fold.rejected + len(fold.entries) - len(records)
        return records

    def append(self, records: Union[SinkRecord, Sequence[SinkRecord]]) -> None:
        """Commit one record, or several together: the sink's write boundary.

        The records of one call share a single write and a single ``fsync``
        and are on disk when it returns.  The planner commits each *simulated*
        record before the next job starts (a kill never loses finished
        simulation work) and holds *cache-served* records until the next
        simulated record or the end of ``Planner.run``.  A kill can therefore
        lose the uncommitted cache-served records of the current runner call
        (and tear the line being written, which ``load`` skips); the cache
        journal holds every one of them, so ``repro scenario resume``
        re-serves them without simulating anything.
        """
        if isinstance(records, SinkRecord):
            records = (records,)
        started = time.perf_counter() if RECORDER.enabled else 0.0
        fsync_seconds = self._journal.append(
            [record.to_line() for record in records]).fsync_seconds
        if RECORDER.enabled:
            RECORDER.observe("sink.fsync_seconds", fsync_seconds)
            RECORDER.observe("sink.append_seconds",
                             time.perf_counter() - started)
            RECORDER.count("sink.appends", len(records))
        self.appended += len(records)

    def reset(self) -> None:
        """Delete the journal (``repro scenario run --fresh``); like
        ``ResultCache.clear`` it re-arms the tail check for the next file."""
        self._journal.reset()
