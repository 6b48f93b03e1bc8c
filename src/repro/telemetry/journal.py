"""The telemetry journal: spans and metrics as append-only JSONL.

Telemetry persists exactly like results do -- one JSON object per line in an
append-only journal, written only by the parent CLI process (workers buffer
in their recorder scope and ship payloads back on the job result).  The file
is a :class:`~repro.campaign.journal.Journal` like the campaign journals (tail
repair, one fsync per flush), so a killed run cannot corrupt the next append,
and the warehouse ingests it incrementally by byte offset just like the cache
and sink journals.  Its read rule, :func:`read_telemetry_line`, keys each
line by its end offset: the journal is append-only and never folded.

Two record kinds share the file:

* ``kind="span"``   -- one finished span (id/parent/name/start/duration/tags),
* ``kind="metric"`` -- one counter, gauge or histogram snapshot.

Every record is stamped with the telemetry schema version, the simulator
version, a per-flush ``run`` id and the writing ``pid``; flushing *drains*
the recorder's base scope, so repeated flushes append deltas rather than
re-writing history.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

# NOTE: repro.campaign.{journal,spec} are imported lazily inside the
# functions that need them.  The campaign layer (via repro.sim) imports the
# telemetry recorder at module scope; a module-level import here would close
# that loop into a circular import.  Flush/iterate are cold paths, so the
# deferred import costs nothing that matters.
from repro.telemetry.recorder import RECORDER, Recorder

#: Version stamp for telemetry journal lines (bump on layout change).
TELEMETRY_SCHEMA_VERSION = 1

#: Environment variable overriding the telemetry journal directory.
TELEMETRY_DIR_ENV = "REPRO_TELEMETRY_DIR"
#: Default directory (relative to the working directory) for telemetry.
DEFAULT_TELEMETRY_DIR = "telemetry"
#: Journal file name inside the telemetry directory.
JOURNAL_NAME = "telemetry.jsonl"


def default_telemetry_dir() -> Path:
    """The telemetry directory (``$REPRO_TELEMETRY_DIR`` aware)."""
    override = os.environ.get(TELEMETRY_DIR_ENV)
    return Path(override).expanduser() if override else Path(DEFAULT_TELEMETRY_DIR)


def default_journal_path() -> Path:
    """Where the telemetry journal lives by default."""
    return default_telemetry_dir() / JOURNAL_NAME


def new_run_id() -> str:
    """A unique-enough id tying one flush's records together."""
    return f"{int(time.time() * 1000):x}-{os.getpid():x}"


def payload_records(payload: Dict[str, object], run: str,
                    pid: Optional[int] = None) -> List[Dict[str, object]]:
    """A recorder payload -> the journal lines that represent it."""
    from repro.campaign.spec import simulator_version

    pid = os.getpid() if pid is None else pid
    stamp = {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "simulator": simulator_version(),
        "run": run,
        "pid": pid,
    }
    records: List[Dict[str, object]] = []
    for span in payload.get("spans", ()):
        records.append({**stamp, "kind": "span", "id": span["id"],
                        "parent": span.get("parent"), "name": span["name"],
                        "start": span["start"], "duration": span["duration"],
                        "tags": span.get("tags", {})})
    for name, value in payload.get("counters", {}).items():
        records.append({**stamp, "kind": "metric", "type": "counter",
                        "name": name, "value": value})
    for name, value in payload.get("gauges", {}).items():
        records.append({**stamp, "kind": "metric", "type": "gauge",
                        "name": name, "value": value})
    for name, histogram in payload.get("histograms", {}).items():
        records.append({**stamp, "kind": "metric", "type": "histogram",
                        "name": name, "sum": histogram["sum"],
                        "count": histogram["count"],
                        "buckets": list(histogram["buckets"])})
    return records


def _int(value) -> bool:
    """An int (not a bool) that fits the warehouse's 64-bit columns."""
    return type(value) is int and -2 ** 63 <= value < 2 ** 63


def _number(value) -> bool:
    return type(value) is float or _int(value)


def read_telemetry_line(record: Mapping, end: int, text: str,
                        ) -> Optional[Tuple[int, Mapping]]:
    """The telemetry journal's read rule: ``end offset -> record``.

    A line counts when it carries this telemetry schema (an int), a
    simulator stamp (a str) and the fields of its kind with their types: a
    span its int ``id`` (and ``parent``, when set), ``name``, ``start`` and
    ``duration``; a metric its ``name`` and the value(s) of its type.
    """
    if (type(record.get("schema")) is not int
            or record["schema"] != TELEMETRY_SCHEMA_VERSION
            or type(record.get("simulator")) is not str
            or type(record.get("name")) is not str):
        return None
    kind, metric = record.get("kind"), record.get("type")
    if kind == "span":
        parent = record.get("parent")
        usable = (_int(record.get("id")) and (parent is None or _int(parent))
                  and _number(record.get("start"))
                  and _number(record.get("duration"))
                  and isinstance(record.get("tags") or {}, dict))
    elif kind == "metric" and metric in ("counter", "gauge"):
        usable = _number(record.get("value"))
    elif kind == "metric" and metric == "histogram":
        usable = (_number(record.get("sum")) and _int(record.get("count"))
                  and isinstance(record.get("buckets"), list))
    else:
        usable = False
    return (end, record) if usable else None


def flush(recorder: Optional[Recorder] = None,
          path: Optional[Union[str, Path]] = None,
          run: Optional[str] = None) -> int:
    """Drain the recorder's active scope into the journal.

    Returns the number of lines appended (0 when nothing was recorded --
    the journal file is then not even created).  The scope restarts empty,
    so back-to-back flushes journal deltas, never duplicates.
    """
    from repro.campaign.journal import Journal

    recorder = RECORDER if recorder is None else recorder
    payload = recorder.drain()
    records = payload_records(payload, run or new_run_id())
    if not records:
        return 0
    target = Path(path).expanduser() if path else default_journal_path()
    Journal(target, read_telemetry_line, fsync=True).append(records)
    return len(records)


def iter_telemetry_records(path: Optional[Union[str, Path]] = None,
                           ) -> Iterator[Dict]:
    """Stream every record of the journal its read rule accepts."""
    from repro.campaign.journal import Journal

    target = Path(path).expanduser() if path else default_journal_path()
    for _, read, _ in Journal(target, read_telemetry_line).read():
        if read is not None:
            yield read[1]
