"""The warehouse's one store: stdlib :mod:`sqlite3` behind :func:`open_store`.

The database file defaults to ``<cache dir>/warehouse.sqlite`` (the cache
directory already honours ``REPRO_CACHE_DIR``/XDG), overridable with
``REPRO_WAREHOUSE_PATH`` or an explicit ``path=``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.campaign.cache import default_cache_dir
from repro.warehouse.schema import DDL, RELATIONS, WAREHOUSE_SCHEMA_VERSION

#: Environment variable overriding the warehouse database path.
PATH_ENV = "REPRO_WAREHOUSE_PATH"


class WarehouseError(RuntimeError):
    """Any warehouse-level failure (missing store, bad query, parity breach)."""


@dataclass(frozen=True)
class QueryResult:
    """One query's column names and rows."""

    columns: Tuple[str, ...]
    rows: List[tuple]

    def render(self) -> str:
        """Markdown/ASCII table (same renderer as every other repro table)."""
        from repro.experiments.report import render_table

        formatted = [["" if cell is None else
                      (f"{cell:.4g}" if isinstance(cell, float) else str(cell))
                      for cell in row] for row in self.rows]
        return render_table(list(self.columns), formatted)


class ResultStore:
    """Connection management plus qmark-style ``execute``/``executemany``/
    ``query`` over one sqlite database.

    ``read_only=True`` opens the database through a ``mode=ro`` URI, so raw
    user SQL physically cannot write -- the read-only guarantee does not
    depend on parsing the statement.
    """

    def __init__(self, path: Path, read_only: bool = False):
        # Imported on first open, as before: every `repro` process imports
        # this module, few of them (no simulation worker) ever open a store.
        import sqlite3

        self.path = Path(path)
        self.read_only = read_only
        if read_only:
            if not self.path.exists():
                raise WarehouseError(
                    f"no warehouse at {self.path}; run `repro warehouse sync` first")
            self._conn = sqlite3.connect(
                f"file:{self.path}?mode=ro", uri=True)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._conn = sqlite3.connect(self.path)
            # The warehouse is derived data: throughput over durability.
            self._conn.execute("PRAGMA synchronous = OFF")
            self._conn.execute("PRAGMA journal_mode = MEMORY")

    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Sequence = ()) -> None:
        self._conn.execute(sql, tuple(params))

    def executemany(self, sql: str, rows: Sequence[Sequence]) -> None:
        self._conn.executemany(sql, [tuple(row) for row in rows])

    def query(self, sql: str, params: Sequence = ()) -> QueryResult:
        try:
            cursor = self._conn.execute(sql, tuple(params))
        except self._conn.Error as error:
            raise WarehouseError(f"sqlite query failed: {error}") from error
        columns = tuple(d[0] for d in cursor.description) if cursor.description else ()
        return QueryResult(columns=columns, rows=cursor.fetchall())

    def commit(self) -> None:
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    # ------------------------------------------------------------------
    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self.read_only:
            self._conn.commit()
        self.close()


def default_warehouse_path() -> Path:
    """Where the warehouse database lives by default."""
    override = os.environ.get(PATH_ENV)
    if override:
        return Path(override).expanduser()
    return default_cache_dir() / "warehouse.sqlite"


def open_store(path: Optional[Union[str, Path]] = None,
               read_only: bool = False) -> ResultStore:
    """Open (creating if needed) the warehouse.

    The schema is created on first open; a store written under a different
    ``WAREHOUSE_SCHEMA_VERSION`` is dropped and recreated empty -- the
    journals are the source of truth, so a schema bump costs one rebuild,
    never data.
    """
    db_path = Path(path).expanduser() if path is not None else default_warehouse_path()
    store = ResultStore(db_path, read_only=read_only)
    try:
        # The `counters` view is json_each over `raw`: fail here, by name,
        # not with an OperationalError from the first query that touches it.
        store.query("SELECT json_valid('{}')")
    except WarehouseError as error:
        import sqlite3

        store.close()
        raise WarehouseError(
            f"SQLite {sqlite3.sqlite_version} lacks the JSON functions "
            f"(json_each; built in since 3.38) the warehouse's `counters` "
            f"view is defined with") from error
    if not read_only:
        _ensure_schema(store)
    return store


def _ensure_schema(store: ResultStore) -> None:
    """Create the schema; reset the store on a warehouse-schema mismatch."""
    kinds = dict(store.query("SELECT name, type FROM sqlite_master "
                             "WHERE type IN ('table', 'view')").rows)
    current = str(WAREHOUSE_SCHEMA_VERSION)
    if "meta" in kinds and store.query(
            "SELECT value FROM meta WHERE key = 'schema_version'"
            ).rows == [(current,)]:
        return
    # New file or stale layout: drop what an older version left, each name by
    # its own kind (`counters` was a table up to v2), recreate; callers re-sync.
    for name in RELATIONS:
        if name in kinds:
            store.execute(f"DROP {kinds[name]} IF EXISTS {name}")
    for statement in DDL:
        store.execute(statement)
    store.execute("INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                  ("schema_version", current))
    store.commit()
