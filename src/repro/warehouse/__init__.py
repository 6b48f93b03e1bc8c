"""Queryable results warehouse: SQL analytics over every result ever journaled.

The campaign cache and the scenario sinks journal every completed job as
append-only JSONL -- write-optimised, crash-safe, and unqueryable at scale:
any cross-campaign question means re-parsing whole files.  This subsystem
derives a *second, relational tier* from those journals without demoting
them: the JSONL stays the source of truth, the warehouse is a rebuildable
projection of it (the same ledger/projection split the Engram-style designs
use, and S2RDF's move of translating a log-structured model into relational
tables to make analytics tractable).

* :mod:`~repro.warehouse.store` -- :class:`ResultStore`, the one stdlib
  ``sqlite3`` store, and :func:`open_store`.
* :mod:`~repro.warehouse.schema` -- the tables: ``jobs``,
  ``scenario_runs``, the telemetry projection (``spans`` + ``metrics``),
  per-journal sync state, and ``counters``, a view over the records' JSON.
* :mod:`~repro.warehouse.ingest` -- streaming journal ingest: incremental
  :func:`sync` via per-journal byte offsets (rewrites detected by prefix
  hash), idempotent full :func:`rebuild`, and :func:`parity_check` proving
  the warehouse rows equal to the loaders' own last-wins fold.  Every row is
  read through the rule the journal's client declares.
* :mod:`~repro.warehouse.queries` -- canned analytics (``best-lws``,
  ``speedup``, ``cache-trends``, ``scenarios``), guarded raw SQL and status
  rendering.  ``scenario report`` never reads the warehouse: a report reads
  its sink alone.

Quick start::

    from repro.warehouse import open_store, sync, run_canned

    store = open_store()                       # ~/.cache/repro/warehouse.sqlite
    print(sync(store).render())                # ingest cache + sink journals
    print(run_canned(store, "best-lws").render())

CLI: ``repro warehouse sync | rebuild | status | query | report``.
"""

from repro.warehouse.ingest import (
    JournalSyncResult,
    SyncReport,
    discover_journals,
    journal_id,
    parity_check,
    rebuild,
    sync,
)
from repro.warehouse.queries import (
    CANNED,
    CannedQuery,
    render_status,
    run_canned,
    run_sql,
    status_payload,
    table_counts,
)
from repro.warehouse.schema import (
    KIND_CACHE,
    KIND_SINK,
    KIND_TELEMETRY,
    WAREHOUSE_SCHEMA_VERSION,
)
from repro.warehouse.store import (
    PATH_ENV,
    QueryResult,
    ResultStore,
    WarehouseError,
    default_warehouse_path,
    open_store,
)

__all__ = [
    "CANNED",
    "CannedQuery",
    "JournalSyncResult",
    "KIND_CACHE",
    "KIND_SINK",
    "KIND_TELEMETRY",
    "PATH_ENV",
    "QueryResult",
    "ResultStore",
    "SyncReport",
    "WAREHOUSE_SCHEMA_VERSION",
    "WarehouseError",
    "default_warehouse_path",
    "discover_journals",
    "journal_id",
    "open_store",
    "parity_check",
    "rebuild",
    "render_status",
    "run_canned",
    "run_sql",
    "status_payload",
    "sync",
    "table_counts",
]
