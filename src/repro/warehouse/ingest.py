"""Journal -> warehouse ingest: incremental sync, full rebuild, parity proof.

The JSONL journals (campaign cache, scenario sinks, telemetry) remain the
append-only source of truth; this module derives the relational warehouse
from them.

*Incremental sync* keeps a per-journal byte offset plus a hash of the entire
ingested prefix.  A sync re-hashes the prefix (cheap: no JSON parsing) --
if it matches and the file only grew, ingest resumes at the stored offset,
parsing nothing twice; if it does not (the cache compacts superseded lines
in place, a sink was reset), that journal's rows are dropped and re-ingested
from byte zero.  Either way the result is identical to a fresh rebuild --
"sync then sync again" is a provable no-op, which the tests assert.

*Last-wins* is the journals' own read rule, not a copy of it: each kind
maps to the rule its client declared next to its writer
(:func:`~repro.campaign.cache.read_cache_line`,
:func:`~repro.scenarios.sink.read_sink_line`,
:func:`~repro.telemetry.journal.read_telemetry_line`), and every row is
slotted by the rule's key -- ``(hash, simulator, schema)`` for cache
records, ``(key, simulator, schema)`` for sink records, the line's end
offset for telemetry -- in journal order, so the later line wins exactly as
in the loaders' :meth:`~repro.campaign.journal.Journal.fold`.  A line the
rule refuses is counted as skipped and never becomes a row.

*Raw lines* -- every row's ``raw`` column is the journal line itself, as
:meth:`~repro.campaign.journal.Journal.read` returns its text: sync stores
what the writer wrote instead of serialising the parsed record again.  For
a line :meth:`~repro.campaign.journal.Journal.append` wrote, that is the
record's canonical ``sort_keys`` JSON.

*Parity* (:func:`parity_check`) is byte equality with each key's last
accepted line: it folds each journal through its read rule once, exactly as
its loader does (complete lines only -- a half-written tail is invisible to
both sides), keeps each key's last accepted line, and compares every
warehouse row's ``raw`` with that line byte for byte.  A missing, phantom
or differing row is a mismatch; so is a row holding an equal record in
other JSON text.  ``repro warehouse rebuild`` runs it by default.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Dict, Hashable, Iterable, List, Optional,
                    Tuple, Union)

from repro.campaign.cache import (CACHE_FILE_NAME, default_cache_dir,
                                  read_cache_line)
from repro.campaign.journal import Journal, ReadRule
from repro.campaign.result import JobResult
from repro.scenarios.sink import SinkRecord, default_sink_dir, read_sink_line
from repro.telemetry.journal import default_telemetry_dir, read_telemetry_line
from repro.warehouse.schema import (
    KIND_CACHE,
    KIND_SINK,
    KIND_TELEMETRY,
    RECORD_TABLES,
)
from repro.warehouse.store import ResultStore

#: Rows buffered per executemany flush during ingest.
BATCH_SIZE = 1000

JournalSpec = Tuple[Path, str]   # (path, KIND_CACHE | KIND_SINK | KIND_TELEMETRY)


def journal_id(path: Union[str, Path]) -> str:
    """The canonical warehouse key of one journal file."""
    return str(Path(path).expanduser().resolve())


def discover_journals(cache_dir: Optional[Union[str, Path]] = None,
                      scenario_dir: Optional[Union[str, Path]] = None,
                      telemetry_dir: Optional[Union[str, Path]] = None,
                      ) -> List[JournalSpec]:
    """Every journal the warehouse should track: cache, sinks, telemetry.

    ``cache_dir``/``scenario_dir``/``telemetry_dir`` default to the same
    resolution the cache, sink and telemetry journal use themselves
    (``REPRO_CACHE_DIR``, ``REPRO_SCENARIO_DIR``, ``REPRO_TELEMETRY_DIR``),
    so `repro warehouse sync` with no flags tracks exactly what `repro
    campaign`/`repro scenario` wrote.
    """
    def _absolute(base: Path) -> Path:
        # Journals are tracked by absolute path (journal_id resolves); a
        # CWD-relative base here would track different files than the
        # writers -- which resolve their paths at creation time -- wrote.
        return base if base.is_absolute() else Path.cwd() / base

    cache_base = _absolute(
        Path(cache_dir).expanduser() if cache_dir else default_cache_dir())
    sink_base = _absolute(
        Path(scenario_dir).expanduser() if scenario_dir else default_sink_dir())
    telemetry_base = _absolute(
        Path(telemetry_dir).expanduser() if telemetry_dir
        else default_telemetry_dir())
    journals: List[JournalSpec] = [(cache_base / CACHE_FILE_NAME, KIND_CACHE)]
    if sink_base.is_dir():
        journals.extend((path, KIND_SINK)
                        for path in sorted(sink_base.glob("*.jsonl")))
    if telemetry_base.is_dir():
        journals.extend((path, KIND_TELEMETRY)
                        for path in sorted(telemetry_base.glob("*.jsonl")))
    return journals


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JournalSyncResult:
    """Accounting for one journal in one sync pass."""

    journal: str
    kind: str
    ingested: int              # rows upserted by this pass
    skipped: int               # unusable lines seen by this pass
    offset: int                # byte offset now ingested up to
    resynced: bool             # journal was rewritten -> rows rebuilt from 0

    def render(self) -> str:
        origin = "resync" if self.resynced else "incremental"
        return (f"{self.journal} [{self.kind}]: +{self.ingested} row(s), "
                f"{self.skipped} skipped, offset {self.offset} ({origin})")


@dataclass(frozen=True)
class SyncReport:
    """Accounting for one :func:`sync` call."""

    journals: Tuple[JournalSyncResult, ...]

    @property
    def ingested(self) -> int:
        return sum(j.ingested for j in self.journals)

    def render(self) -> str:
        if not self.journals:
            return "no journals found to sync"
        lines = [j.render() for j in self.journals]
        lines.append(f"{self.ingested} row(s) ingested across "
                     f"{len(self.journals)} journal(s)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _prefix_hash(path: Path, length: int) -> str:
    """SHA-256 of the first ``length`` bytes (streamed, constant memory)."""
    digest = hashlib.sha256()
    remaining = length
    with path.open("rb") as handle:
        while remaining > 0:
            chunk = handle.read(min(1 << 20, remaining))
            if not chunk:
                break
            digest.update(chunk)
            remaining -= len(chunk)
    return digest.hexdigest()


def _canonical(value) -> str:
    """The canonical JSON of a record's part that has a column of its own."""
    return json.dumps(value, sort_keys=True)


def _job_row(jid: str, key: tuple, result: JobResult,
             text: str) -> Tuple[str, tuple]:
    """One cache line -> its ``jobs`` row."""
    return _JOBS_SQL, (jid,) + key + (
        result.problem, result.category, result.config_name,
        result.hardware_parallelism, result.global_size, result.local_size,
        result.num_workgroups, result.num_calls, result.cycles,
        result.sim_cycles, result.overhead_cycles, int(result.extrapolated),
        result.lane_utilization, result.elapsed_seconds, text,
    )


def _int_or_none(value) -> Optional[int]:
    try:
        return None if value is None else int(value)
    except (TypeError, ValueError, OverflowError):
        return None


def _run_row(jid: str, key: tuple, run: SinkRecord,
             text: str) -> Tuple[str, tuple]:
    """One sink line -> its ``scenario_runs`` row."""
    meta, result = run.meta, run.result
    engine = meta.get("engine")
    return _RUNS_SQL, (jid,) + key + (
        run.scenario, run.job_hash, result.problem,
        result.category, result.config_name,
        str(meta["strategy"]) if "strategy" in meta else None,
        None if engine is None else str(engine),
        _int_or_none(meta.get("seed")),
        str(meta["scale"]) if "scale" in meta else None,
        _int_or_none(meta.get("gws")),
        result.local_size, result.cycles, result.lane_utilization,
        result.elapsed_seconds, _canonical(meta), text,
    )


def _telemetry_row(jid: str, end: int, record: Dict,
                   text: str) -> Tuple[str, tuple]:
    """One telemetry line -> its ``spans`` or ``metrics`` row.

    Keyed by ``(journal, end_offset)``: the journal is append-only and never
    compacted, so a line's end offset is a stable identity that makes
    incremental sync a pure append.
    """
    head = (jid, end, str(record.get("run", "")),
            _int_or_none(record.get("pid")) or 0)
    if record["kind"] == "span":
        return _SPANS_SQL, head + (
            record["id"], record.get("parent"), record["name"],
            float(record["start"]), float(record["duration"]),
            _canonical(record.get("tags") or {}), text)
    if record["type"] == "histogram":
        return _METRICS_SQL, head + (
            "histogram", record["name"], None, float(record["sum"]),
            record["count"], _canonical(record["buckets"]), text)
    return _METRICS_SQL, head + (
        record["type"], record["name"], float(record["value"]), None, None,
        None, text)


_JOBS_SQL = ("INSERT OR REPLACE INTO jobs VALUES (" + ",".join("?" * 19) + ")")
_RUNS_SQL = ("INSERT OR REPLACE INTO scenario_runs VALUES ("
             + ",".join("?" * 20) + ")")
_SPANS_SQL = ("INSERT OR REPLACE INTO spans VALUES ("
              + ",".join("?" * 11) + ")")
_METRICS_SQL = ("INSERT OR REPLACE INTO metrics VALUES ("
                + ",".join("?" * 11) + ")")


@dataclass(frozen=True)
class _Kind:
    """How one journal kind is read and where its rows live."""

    rule: ReadRule
    row: Callable[[str, Hashable, Any, str], Tuple[str, tuple]]
    tables: Tuple[str, ...]
    key_columns: str          # the rule's key, as columns of ``tables``


_KINDS = {
    KIND_CACHE: _Kind(read_cache_line, _job_row, ("jobs",),
                      "hash, simulator, schema_version"),
    KIND_SINK: _Kind(read_sink_line, _run_row, ("scenario_runs",),
                     "key, simulator, schema_version"),
    KIND_TELEMETRY: _Kind(read_telemetry_line, _telemetry_row,
                          ("spans", "metrics"), "offset"),
}


def _delete_journal_rows(store: ResultStore, jid: str) -> None:
    for table in RECORD_TABLES:
        store.execute(f"DELETE FROM {table} WHERE journal = ?", (jid,))


def _sync_journal(store: ResultStore, path: Path, kind: str,
                  full: bool) -> JournalSyncResult:
    jid = journal_id(path)
    state = store.query(
        "SELECT offset, head_len, head_hash, rows, skipped FROM journals "
        "WHERE journal = ?", (jid,)).rows
    if not path.exists():
        # A journal the warehouse knew about disappeared (cache cleared,
        # sink reset): its derived rows must go too.
        _delete_journal_rows(store, jid)
        store.execute("DELETE FROM journals WHERE journal = ?", (jid,))
        store.commit()
        return JournalSyncResult(journal=jid, kind=kind, ingested=0,
                                 skipped=0, offset=0, resynced=bool(state))

    size = path.stat().st_size
    offset, head_len, head_hash, rows_total, skipped_total = (
        state[0] if state else (0, 0, "", 0, 0))
    resync = full or not state
    if not resync and (size < offset
                       or _prefix_hash(path, head_len) != head_hash):
        # The ingested prefix changed under us: the cache compacted
        # superseded lines in place, or the journal was replaced wholesale.
        resync = True
    if resync:
        _delete_journal_rows(store, jid)
        offset = rows_total = skipped_total = 0

    # One row per record and nothing else: `counters` is a view over `raw`,
    # so a superseding upsert takes its counters with it.  `raw` is the
    # line's own text, stored as read: nothing is serialised again.  Rows
    # batch per destination statement (a telemetry journal feeds spans and
    # metrics).
    ingested = skipped = 0
    batches: Dict[str, List[tuple]] = {}
    row = _KINDS[kind].row

    def flush() -> None:
        for sql, rows in batches.items():
            store.executemany(sql, rows)
        batches.clear()

    journal = Journal(path, _KINDS[kind].rule)
    for line in journal.read(offset, complete_only=True):
        _, read, end = line
        if read is None:
            skipped += 1
        else:
            sql, values = row(jid, *read, line.text)
            batches.setdefault(sql, []).append(values)
            ingested += 1
            if ingested % BATCH_SIZE == 0:
                flush()
        offset = end
    flush()

    store.execute(
        "INSERT OR REPLACE INTO journals VALUES (?,?,?,?,?,?,?,?)",
        (jid, kind, offset, offset, _prefix_hash(path, offset),
         rows_total + ingested, skipped_total + skipped, time.time()))
    store.commit()
    return JournalSyncResult(journal=jid, kind=kind, ingested=ingested,
                             skipped=skipped, offset=offset, resynced=resync)


# ----------------------------------------------------------------------
def sync(store: ResultStore,
         cache_dir: Optional[Union[str, Path]] = None,
         scenario_dir: Optional[Union[str, Path]] = None,
         telemetry_dir: Optional[Union[str, Path]] = None,
         journals: Optional[Iterable[JournalSpec]] = None,
         full: bool = False) -> SyncReport:
    """Bring the warehouse up to date with the journals (incrementally).

    ``journals`` overrides discovery for callers that track an explicit set;
    everyone else gets the cache journal plus every sink in the scenario
    directory plus every telemetry journal.  ``full=True`` forces a
    from-zero resync of every journal without touching other journals' rows.
    """
    specs = list(journals) if journals is not None else discover_journals(
        cache_dir, scenario_dir, telemetry_dir)
    with_span = _ingest_span()
    results = tuple(_sync_journal(store, Path(path), kind, full)
                    for path, kind in specs)
    with_span(sum(j.ingested for j in results))
    return SyncReport(journals=results)


def _ingest_span():
    """Start timing one warehouse sync; returns a ``finish(rows)`` callback."""
    from repro.telemetry.recorder import RECORDER
    if not RECORDER.enabled:
        return lambda rows: None
    start_wall = time.time()
    start_perf = time.perf_counter()

    def finish(rows: int) -> None:
        RECORDER.record_span("warehouse.sync", start_wall,
                             time.perf_counter() - start_perf,
                             backend="sqlite", rows=rows)
        RECORDER.count("warehouse.rows_ingested", rows)

    return finish


def rebuild(store: ResultStore,
            cache_dir: Optional[Union[str, Path]] = None,
            scenario_dir: Optional[Union[str, Path]] = None,
            telemetry_dir: Optional[Union[str, Path]] = None,
            journals: Optional[Iterable[JournalSpec]] = None) -> SyncReport:
    """Drop every derived row and re-ingest all journals from byte zero.

    Idempotent by construction: the warehouse after ``rebuild`` is a pure
    function of the journals' bytes, so rebuilding twice -- or rebuilding
    after any sequence of incremental syncs -- lands on identical contents
    (:func:`parity_check` proves it against the journals themselves).
    """
    for table in RECORD_TABLES:
        store.execute(f"DELETE FROM {table}")
    store.execute("DELETE FROM journals")
    store.commit()
    return sync(store, cache_dir=cache_dir, scenario_dir=scenario_dir,
                telemetry_dir=telemetry_dir, journals=journals, full=True)


# ----------------------------------------------------------------------
def parity_check(store: ResultStore,
                 cache_dir: Optional[Union[str, Path]] = None,
                 scenario_dir: Optional[Union[str, Path]] = None,
                 telemetry_dir: Optional[Union[str, Path]] = None,
                 journals: Optional[Iterable[JournalSpec]] = None) -> List[str]:
    """Prove the warehouse rows equal to the loaders' own fold of the journals.

    Each journal is folded last-wins through its kind's read rule (complete
    lines only), keeping each key's last accepted line, and each of its rows
    must store that line byte for byte.  Returns human-readable mismatches
    (empty = parity holds): a key the fold has and no row does (missing), a
    row the fold does not have (phantom), and a row whose stored line is not
    the fold's (differs) -- also when it holds the same record in other JSON
    text.
    """
    specs = list(journals) if journals is not None else discover_journals(
        cache_dir, scenario_dir, telemetry_dir)
    mismatches: List[str] = []
    for path, kind in specs:
        jid = journal_id(path)
        spec = _KINDS[kind]
        expected: Dict[Hashable, str] = {}
        for line in Journal(Path(path), spec.rule).read(complete_only=True):
            _, read, _ = line
            if read is not None:
                expected[read[0]] = line.text
        for table in spec.tables:
            for *key, raw in store.query(
                    f"SELECT {spec.key_columns}, raw FROM {table} "
                    f"WHERE journal = ?", (jid,)).rows:
                key = tuple(key) if len(key) > 1 else key[0]
                text = expected.pop(key, None)
                if text is None:
                    mismatches.append(f"{jid}: phantom {kind} row {key}")
                elif raw != text:
                    mismatches.append(f"{jid}: {kind} row {key} differs from "
                                      f"the journal's last-wins line")
        mismatches.extend(f"{jid}: missing {kind} row {key}" for key in expected)
    return mismatches
