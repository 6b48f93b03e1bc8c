"""Journal -> warehouse ingest: incremental sync, full rebuild, parity proof.

The JSONL journals (campaign cache + scenario sinks) remain the append-only
source of truth; this module derives the relational warehouse from them.

*Incremental sync* keeps a per-journal byte offset plus a hash of the entire
ingested prefix.  A sync re-hashes the prefix (cheap: no JSON parsing) --
if it matches and the file only grew, ingest resumes at the stored offset,
parsing nothing twice; if it does not (the cache compacts superseded lines
in place, a sink was reset), that journal's rows are dropped and re-ingested
from byte zero.  Either way the result is identical to a fresh rebuild --
"sync then sync again" is a provable no-op, which the tests assert.

*Last-wins* mirrors the journals' own load semantics: records upsert on the
same key the loaders deduplicate by -- ``(hash, simulator, schema)`` for
cache records, ``(key, simulator, schema)`` for sink records -- in journal
order, so the later line wins exactly as in
:meth:`~repro.campaign.cache.ResultCache._load` and
:meth:`~repro.scenarios.sink.ResultSink.load`.

*Parity* (:func:`parity_check`) recomputes the journals' last-wins view
(complete, parseable lines only -- a half-written tail is invisible to both
sides) and compares it bit-for-bit against the warehouse rows via their
canonical JSON.  ``repro warehouse rebuild`` runs it by default.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.campaign.cache import CACHE_FILE_NAME, default_cache_dir
from repro.campaign.journal import iter_journal_entries
from repro.campaign.result import JobResult
from repro.scenarios.sink import default_sink_dir
from repro.telemetry.journal import (
    default_telemetry_dir,
    is_current_telemetry_record,
)
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


def _canonical(record: Dict) -> str:
    """The canonical JSON a record is stored and compared as."""
    return json.dumps(record, sort_keys=True)


def _usable(kind: str, jid: str,
            record: Dict) -> Optional[Tuple[tuple, JobResult]]:
    """``(slot key, parsed result)`` of one cache/sink record, or None.

    The one acceptance test ingest and the parity view share: both version
    stamps, the key the journal's own loader folds on (``hash`` for cache
    records, ``key`` for sink records) and a well-formed result.
    """
    if kind == KIND_SINK and not ("hash" in record and "scenario" in record):
        return None
    try:
        slot = (jid, str(record["hash" if kind == KIND_CACHE else "key"]),
                str(record["simulator"]), int(record["schema"]))
        return slot, JobResult.from_dict(record["result"])
    except (KeyError, TypeError, ValueError):
        return None


def _job_row(slot: tuple, result: JobResult, record: Dict) -> tuple:
    """One usable cache record -> its ``jobs`` row."""
    return slot + (
        result.problem, result.category, result.config_name,
        result.hardware_parallelism, result.global_size, result.local_size,
        result.num_workgroups, result.num_calls, result.cycles,
        result.sim_cycles, result.overhead_cycles, int(result.extrapolated),
        result.lane_utilization, result.elapsed_seconds, _canonical(record),
    )


def _int_or_none(value) -> Optional[int]:
    try:
        return None if value is None else int(value)
    except (TypeError, ValueError):
        return None


def _run_row(slot: tuple, result: JobResult, record: Dict) -> tuple:
    """One usable sink record -> its ``scenario_runs`` row."""
    meta = record.get("meta") or {}
    engine = meta.get("engine")
    return slot + (
        str(record["scenario"]), str(record["hash"]), result.problem,
        result.category, result.config_name,
        str(meta["strategy"]) if "strategy" in meta else None,
        None if engine is None else str(engine),
        _int_or_none(meta.get("seed")),
        str(meta["scale"]) if "scale" in meta else None,
        _int_or_none(meta.get("gws")),
        result.local_size, result.cycles, result.lane_utilization,
        result.elapsed_seconds, _canonical(meta), _canonical(record),
    )


_JOBS_SQL = ("INSERT OR REPLACE INTO jobs VALUES (" + ",".join("?" * 19) + ")")
_RUNS_SQL = ("INSERT OR REPLACE INTO scenario_runs VALUES ("
             + ",".join("?" * 20) + ")")
_SPANS_SQL = ("INSERT OR REPLACE INTO spans VALUES ("
              + ",".join("?" * 11) + ")")
_METRICS_SQL = ("INSERT OR REPLACE INTO metrics VALUES ("
                + ",".join("?" * 11) + ")")


def _telemetry_row(jid: str, record: Dict, end: int) -> Optional[Tuple[str, tuple]]:
    """One telemetry record -> ``(insert_sql, row)`` or None.

    Telemetry rows are keyed by ``(journal, end_offset)``: the journal is
    append-only and never compacted, so a line's end offset is a stable
    identity that makes incremental sync a pure append.
    """
    if not is_current_telemetry_record(record):
        return None
    run = str(record.get("run", ""))
    pid = _int_or_none(record.get("pid")) or 0
    try:
        if record["kind"] == "span":
            return _SPANS_SQL, (
                jid, end, run, pid, int(record["id"]),
                _int_or_none(record.get("parent")), str(record["name"]),
                float(record["start"]), float(record["duration"]),
                _canonical(record.get("tags") or {}), _canonical(record))
        metric_type = str(record["type"])
        if metric_type == "histogram":
            return _METRICS_SQL, (
                jid, end, run, pid, metric_type, str(record["name"]),
                None, float(record["sum"]), int(record["count"]),
                _canonical(list(record["buckets"])), _canonical(record))
        if metric_type not in ("counter", "gauge"):
            return None
        return _METRICS_SQL, (
            jid, end, run, pid, metric_type, str(record["name"]),
            float(record["value"]), None, None, None, _canonical(record))
    except (KeyError, TypeError, ValueError):
        return None


def _row(kind: str, jid: str, record: Dict,
         end: int) -> Optional[Tuple[str, tuple]]:
    """One journal record -> ``(insert_sql, row)``, or None when unusable."""
    if kind == KIND_TELEMETRY:
        return _telemetry_row(jid, record, end)
    usable = _usable(kind, jid, record)
    if usable is None:
        return None
    if kind == KIND_CACHE:
        return _JOBS_SQL, _job_row(*usable, record)
    return _RUNS_SQL, _run_row(*usable, record)


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
    # so a superseding upsert takes its counters with it.  Rows batch per
    # destination statement (a telemetry journal feeds spans and metrics).
    ingested = skipped = 0
    batches: Dict[str, List[tuple]] = {}

    def flush() -> None:
        for sql, rows in batches.items():
            store.executemany(sql, rows)
        batches.clear()

    for record, end in iter_journal_entries(path, offset, complete_only=True):
        built = None if record is None else _row(kind, jid, record, end)
        if built is None:
            skipped += 1
        else:
            sql, row = built
            batches.setdefault(sql, []).append(row)
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
def _journal_view(path: Path, kind: str) -> Dict[tuple, Tuple[str, int]]:
    """The journal's last-wins view: slot key -> (canonical JSON, #counters).

    Complete, parseable, usable lines only -- the same records ingest
    accepts -- folded last-wins on the same slot key ingest upserts on.
    This is recomputed straight from the journal bytes, sharing no code
    path with the warehouse contents it is compared against.
    """
    jid = journal_id(path)
    view: Dict[tuple, Tuple[str, int]] = {}
    for record, _ in iter_journal_entries(path, 0, complete_only=True):
        usable = None if record is None else _usable(kind, jid, record)
        if usable is not None:
            slot, result = usable
            view[slot] = (_canonical(record), len(result.counters))
    return view


def _telemetry_view(path: Path) -> Dict[int, str]:
    """The telemetry journal's view: line end offset -> canonical JSON.

    The journal is append-only (no last-wins fold): every complete, usable
    line is exactly one warehouse row, identified by its end offset.
    """
    view: Dict[int, str] = {}
    for record, end in iter_journal_entries(path, 0, complete_only=True):
        if record is not None and is_current_telemetry_record(record):
            view[end] = _canonical(record)
    return view


def _telemetry_parity(store: ResultStore, path: Path,
                      mismatches: List[str]) -> None:
    """Compare one telemetry journal against its spans + metrics rows."""
    jid = journal_id(path)
    expected = _telemetry_view(path) if path.exists() else {}
    got: Dict[int, str] = {}
    for table in ("spans", "metrics"):
        for offset, raw in store.query(
                f"SELECT offset, raw FROM {table} WHERE journal = ?",
                (jid,)).rows:
            got[int(offset)] = raw
    for offset in expected.keys() - got.keys():
        mismatches.append(f"{jid}: missing telemetry row @ offset {offset}")
    for offset in got.keys() - expected.keys():
        mismatches.append(f"{jid}: phantom telemetry row @ offset {offset}")
    for offset in expected.keys() & got.keys():
        if expected[offset] != got[offset]:
            mismatches.append(f"{jid}: telemetry row @ offset {offset} "
                              f"differs from the journal line")


def parity_check(store: ResultStore,
                 cache_dir: Optional[Union[str, Path]] = None,
                 scenario_dir: Optional[Union[str, Path]] = None,
                 telemetry_dir: Optional[Union[str, Path]] = None,
                 journals: Optional[Iterable[JournalSpec]] = None) -> List[str]:
    """Prove warehouse rows bit-equal to the journals' last-wins view.

    Returns a list of human-readable mismatches (empty = parity holds):
    missing rows, phantom rows, rows whose canonical JSON differs, and
    counter rows whose count disagrees with the journal's records.
    Telemetry journals compare per line (offset-keyed, no last-wins fold).
    """
    specs = list(journals) if journals is not None else discover_journals(
        cache_dir, scenario_dir, telemetry_dir)
    mismatches: List[str] = []
    for path, kind in specs:
        path = Path(path)
        jid = journal_id(path)
        if kind == KIND_TELEMETRY:
            _telemetry_parity(store, path, mismatches)
            continue
        expected = _journal_view(path, kind) if path.exists() else {}
        table = "jobs" if kind == KIND_CACHE else "scenario_runs"
        key_col = "hash" if kind == KIND_CACHE else "key"
        got = {
            (jid, row[0], row[1], int(row[2])): row[3]
            for row in store.query(
                f"SELECT {key_col}, simulator, schema_version, raw "
                f"FROM {table} WHERE journal = ?", (jid,)).rows
        }
        for slot in expected.keys() - got.keys():
            mismatches.append(f"{jid}: missing {table} row {slot[1]}")
        for slot in got.keys() - expected.keys():
            mismatches.append(f"{jid}: phantom {table} row {slot[1]}")
        for slot in expected.keys() & got.keys():
            if expected[slot][0] != got[slot]:
                mismatches.append(f"{jid}: {table} row {slot[1]} differs "
                                  f"from the journal's last-wins record")
        expected_counters = sum(count for _, count in expected.values())
        counted = store.query(
            "SELECT COUNT(*) FROM counters WHERE journal = ?", (jid,)).rows[0][0]
        if counted != expected_counters:
            mismatches.append(
                f"{jid}: {counted} counter row(s) vs {expected_counters} "
                f"in the journal view")
    return mismatches
