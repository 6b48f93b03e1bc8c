"""The warehouse's query surface: canned analytics + guarded raw SQL.

Canned queries answer the cross-campaign questions the JSONL journals never
could without re-parsing every file -- "best lws per kernel across all
history", "how much simulation time has the cache banked", "what did each
scenario cover".  They are plain sqlite SQL, filtered to the *current*
simulator version by default (mixing cycle models in one aggregate would be
silently wrong; ``cache-trends`` deliberately spans versions, that being
its point).

Raw SQL (``repro warehouse query``) is read-only twice over: the statement
must be a single SELECT/WITH, *and* the CLI opens the store in read-only
mode, so the guarantee does not rest on string inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict

from repro.campaign.journal import current_stamps
from repro.warehouse.schema import RECORD_TABLES, VIEWS
from repro.warehouse.store import QueryResult, ResultStore, WarehouseError


@dataclass(frozen=True)
class CannedQuery:
    """One named analytics query."""

    name: str
    description: str
    sql: str
    params: Callable[[], tuple] = tuple


CANNED: Dict[str, CannedQuery] = {q.name: q for q in (
    CannedQuery(
        name="best-lws",
        description="per (kernel, machine): the lws with the fewest cycles "
                    "across every campaign ever cached",
        sql="""
            SELECT j.problem, j.config_name,
                   MIN(j.local_size) AS best_lws, j.cycles AS best_cycles
            FROM jobs j
            JOIN (SELECT problem, config_name, MIN(cycles) AS best_cycles
                  FROM jobs WHERE simulator = ? AND schema_version = ?
                  GROUP BY problem, config_name) m
              ON m.problem = j.problem AND m.config_name = j.config_name
             AND m.best_cycles = j.cycles
            WHERE j.simulator = ? AND j.schema_version = ?
            GROUP BY j.problem, j.config_name, j.cycles
            ORDER BY j.problem, j.config_name
        """,
        params=lambda: current_stamps() * 2,
    ),
    CannedQuery(
        name="speedup",
        description="per (kernel, baseline strategy): average and worst "
                    "baseline/ours cycle ratio over every scenario run",
        sql="""
            SELECT o.problem, b.strategy AS baseline, COUNT(*) AS points,
                   AVG(1.0 * b.cycles / o.cycles) AS avg_ratio,
                   MIN(1.0 * b.cycles / o.cycles) AS worst_ratio
            FROM scenario_runs o
            JOIN scenario_runs b
              ON b.journal = o.journal AND b.scenario = o.scenario
             AND b.problem = o.problem AND b.config_name = o.config_name
             AND b.seed = o.seed AND b.scale = o.scale
             AND b.simulator = o.simulator
             AND b.schema_version = o.schema_version
             AND COALESCE(b.gws, -1) = COALESCE(o.gws, -1)
             AND COALESCE(b.engine, '') = COALESCE(o.engine, '')
            WHERE o.strategy IN ('ours', 'runtime')
              AND b.strategy NOT IN ('ours', 'runtime')
              AND o.simulator = ? AND o.schema_version = ?
            GROUP BY o.problem, b.strategy
            ORDER BY o.problem, b.strategy
        """,
        params=current_stamps,
    ),
    CannedQuery(
        name="cache-trends",
        description="per simulator version: cached entries, kernels covered "
                    "and banked simulation seconds (what warm hits save)",
        sql="""
            SELECT simulator, COUNT(*) AS entries,
                   COUNT(DISTINCT problem) AS problems,
                   COUNT(DISTINCT config_name) AS configs,
                   SUM(elapsed_seconds) AS banked_seconds
            FROM jobs
            GROUP BY simulator
            ORDER BY simulator
        """,
    ),
    CannedQuery(
        name="span-times",
        description="per telemetry span name: count, total/avg/max seconds "
                    "across every ingested telemetry journal",
        sql="""
            SELECT name, COUNT(*) AS spans,
                   SUM(duration) AS total_seconds,
                   AVG(duration) AS avg_seconds,
                   MAX(duration) AS max_seconds
            FROM spans
            GROUP BY name
            ORDER BY total_seconds DESC
        """,
    ),
    CannedQuery(
        name="scenarios",
        description="per scenario: recorded points, grid coverage and "
                    "cycle range across every sink ever synced",
        sql="""
            SELECT scenario, COUNT(*) AS points,
                   COUNT(DISTINCT problem) AS problems,
                   COUNT(DISTINCT config_name) AS configs,
                   COUNT(DISTINCT strategy) AS strategies,
                   MIN(cycles) AS min_cycles, MAX(cycles) AS max_cycles
            FROM scenario_runs
            WHERE simulator = ? AND schema_version = ?
            GROUP BY scenario
            ORDER BY scenario
        """,
        params=current_stamps,
    ),
)}


def run_canned(store: ResultStore, name: str) -> QueryResult:
    """Execute one canned query by name."""
    if name not in CANNED:
        known = ", ".join(sorted(CANNED))
        raise WarehouseError(f"unknown canned query {name!r}; expected one "
                             f"of: {known}")
    canned = CANNED[name]
    return store.query(canned.sql, canned.params())


def run_sql(store: ResultStore, sql: str) -> QueryResult:
    """Execute one raw read-only statement (SELECT/WITH only)."""
    statement = sql.strip().rstrip(";").strip()
    if not statement:
        raise WarehouseError("empty query")
    if ";" in statement:
        raise WarehouseError("one statement per query")
    head = statement.split(None, 1)[0].lower()
    if head not in ("select", "with"):
        raise WarehouseError(
            f"read-only surface: statements must start with SELECT or WITH, "
            f"got {head!r}")
    return store.query(statement)


# ----------------------------------------------------------------------
def table_counts(store: ResultStore) -> Dict[str, int]:
    """Row count per derived table and view."""
    return {table: store.query(f"SELECT COUNT(*) FROM {table}").rows[0][0]
            for table in RECORD_TABLES + VIEWS}


def render_status(store: ResultStore) -> str:
    """Human-readable warehouse state: store, tables, per-journal sync.

    This is what ``repro warehouse status`` prints: per-table row counts
    plus each journal's last-sync offset, instead of the journal-side
    lines/KiB accounting that ``repro campaign status`` prints.
    """
    size = store.path.stat().st_size if store.path.exists() else 0
    lines = [
        f"warehouse       : {store.path} (sqlite backend, "
        f"{size / 1024:.1f} KiB)",
    ]
    for table, count in table_counts(store).items():
        lines.append(f"{table:<16}: {count} row(s)")
    journals = store.query(
        "SELECT journal, kind, offset, rows, skipped FROM journals "
        "ORDER BY journal").rows
    if not journals:
        lines.append("no journals synced yet (run `repro warehouse sync`)")
    for journal, kind, offset, rows, skipped in journals:
        path = Path(journal)
        behind = ""
        if path.exists():
            delta = path.stat().st_size - offset
            behind = " (synced)" if delta == 0 else f" ({delta} byte(s) behind)"
        lines.append(f"journal [{kind:<5}] : {journal} -- offset {offset}, "
                     f"{rows} row(s), {skipped} skipped{behind}")
    return "\n".join(lines)


def status_payload(store: ResultStore) -> Dict[str, object]:
    """The warehouse state as JSON-ready data (``repro warehouse status --json``).

    Same facts as :func:`render_status`: backend, per-table row counts and
    per-journal sync offsets.
    """
    size = store.path.stat().st_size if store.path.exists() else 0
    journals = []
    for journal, kind, offset, rows, skipped in store.query(
            "SELECT journal, kind, offset, rows, skipped FROM journals "
            "ORDER BY journal").rows:
        path = Path(journal)
        behind = path.stat().st_size - offset if path.exists() else None
        journals.append({
            "journal": journal,
            "kind": kind,
            "offset": offset,
            "rows": rows,
            "skipped": skipped,
            "bytes_behind": behind,
            "synced": behind == 0,
        })
    return {
        "warehouse": str(store.path),
        "backend": "sqlite",
        "size_bytes": size,
        "tables": table_counts(store),
        "journals": journals,
    }
