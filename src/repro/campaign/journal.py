"""Shared JSONL-journal helpers.

Every append-only journal in the repository -- the campaign
:class:`~repro.campaign.cache.ResultCache`, the scenario
:class:`~repro.scenarios.sink.ResultSink`, the service
:class:`~repro.service.queue.JobQueue` and the telemetry journal -- shares
its on-disk behaviour: one JSON object per line, corrupt lines tolerated (a
killed writer's half-written tail), and records filtered by schema and
simulator version on load.  That behaviour lives here once so the journals
cannot diverge; :class:`JournalWriter` is the package's only append path.

Iteration is *streaming*: :func:`iter_journal_entries` reads the file one
line at a time (never the whole journal into memory) and reports the byte
offset each line ends at, which is what the results warehouse
(:mod:`repro.warehouse`) uses to sync incrementally -- a journal synced to
offset N resumes ingesting at byte N, touching none of the already-ingested
prefix.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.campaign.spec import CACHE_SCHEMA_VERSION, simulator_version


def _parse_line(raw: bytes) -> Optional[Dict]:
    """One journal line -> parsed JSON object, or ``None`` when corrupt."""
    try:
        record = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


def iter_journal_entries(path: Path, start: int = 0,
                         complete_only: bool = False,
                         ) -> Iterator[Tuple[Optional[Dict], int]]:
    """Stream ``(record_or_None, end_offset)`` per journal line from ``start``.

    The journal is read incrementally (one line at a time, binary mode), so
    arbitrarily large journals never materialise in memory.  ``end_offset``
    is the byte offset immediately after the line's newline -- feeding it
    back as ``start`` resumes iteration exactly where this one stopped.

    A line that is not a JSON object (the classic half-written tail of a
    dead process) yields ``None`` so callers can count it without crashing;
    blank lines also yield ``None`` -- they carry no record, but consumers
    that persist the consumed offset (the warehouse sync) must see the
    offset advance past them, or a journal with trailing blank lines would
    be re-hashed and re-read on every subsequent pass.  The final line of a
    journal whose writer died mid-record has no terminating newline: with
    ``complete_only=True`` (the warehouse ingest mode) it is *not* yielded
    and not consumed -- the offset stops before it, and a later sync picks
    it up once the tail is terminated or overwritten; with the default
    ``complete_only=False`` it is parsed like any other line (matching the
    historical whole-file read).
    """
    if not path.exists():
        return
    offset = start
    with path.open("rb") as journal:
        journal.seek(start)
        for raw in journal:
            offset += len(raw)
            if not raw.endswith(b"\n"):
                # Unterminated tail: a writer may still be mid-append.
                if complete_only:
                    return
                stripped = raw.strip()
                if stripped:
                    yield _parse_line(stripped), offset
                return
            stripped = raw.strip()
            if not stripped:
                yield None, offset
                continue
            yield _parse_line(stripped), offset


def iter_journal_lines(path: Path) -> Iterator[Optional[Dict]]:
    """Yield one parsed JSON object per journal line, ``None`` when corrupt.

    Streaming wrapper over :func:`iter_journal_entries` for callers that do
    not care about byte offsets (the cache and sink loaders).
    """
    for record, _ in iter_journal_entries(path):
        yield record


def is_current_record(record: Dict) -> bool:
    """True when ``record`` was written under this schema and simulator.

    Records from other versions are unusable (the cycle model may have
    changed) but are preserved on disk -- bumping ``repro.__version__``
    invalidates without rewriting.
    """
    return (record.get("schema") == CACHE_SCHEMA_VERSION
            and record.get("simulator") == simulator_version())


def terminate_partial_tail(path: Path) -> None:
    """Append a newline if ``path`` ends mid-line (a killed writer's tail).

    No-op when the file is missing, empty, or already newline-terminated.
    """
    if not path.exists() or path.stat().st_size == 0:
        return
    with path.open("rb") as journal:
        journal.seek(-1, os.SEEK_END)
        ends_clean = journal.read(1) == b"\n"
    if not ends_clean:
        with path.open("a") as journal:
            journal.write("\n")


class JournalWriter:
    """The one append path of every journal: a batch of records, one commit.

    :meth:`append` lands the records (canonical ``sort_keys`` JSON, one per
    line) with a single write and -- where the client's fixed policy asks for
    durability (sink, queue, telemetry: yes; cache: no, a lost entry costs one
    re-simulation) -- a single ``fsync``.  A single record is a batch of one.

    A tail that a killed writer left without its newline is terminated before
    the first append (a record merged into it would corrupt both), once per
    writer; a client that unlinks its journal calls :meth:`rearm`, because
    another process may re-create the file with a partial tail.
    """

    def __init__(self, path: Path, fsync: bool):
        self.path = path
        self.fsync = fsync
        self._tail_checked = False

    def rearm(self) -> None:
        """Repair the tail again before the next append (journal unlinked)."""
        self._tail_checked = False

    def append(self, records: Sequence[Mapping[str, object]]) -> float:
        """Commit ``records`` together; returns the seconds spent in fsync."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self._tail_checked:
            self._tail_checked = True
            terminate_partial_tail(self.path)
        lines = "".join(json.dumps(record, sort_keys=True) + "\n"
                        for record in records)
        with self.path.open("a") as journal:
            journal.write(lines)
            if not self.fsync:
                return 0.0
            journal.flush()
            started = time.perf_counter()
            os.fsync(journal.fileno())
            return time.perf_counter() - started
