"""The warehouse's relational schema.

The JSONL journals stay the append-only source of truth; the warehouse is a
*derived* store the journals are synced (or fully rebuilt) into.  The DDL
below is plain stdlib ``sqlite3`` -- ``CREATE TABLE IF NOT EXISTS``, qmark
parameters, ``INSERT OR REPLACE`` upserts.

Tables and views
----------------
``jobs``
    One row per cache-journal record, last-wins per ``(journal, hash,
    simulator, schema_version)`` -- exactly the key the cache itself keeps
    when it loads and compacts.  Columns flatten the
    :class:`~repro.campaign.result.JobResult` summary; ``raw`` is the
    journal line as its writer wrote it -- canonical ``sort_keys`` JSON for
    every line :meth:`~repro.campaign.journal.Journal.append` wrote -- so
    rebuild parity is a byte comparison and a record can always be
    reconstructed.
``scenario_runs``
    One row per scenario-sink record, last-wins per ``(journal, key,
    simulator, schema_version)``.  Planner meta tags (strategy, engine,
    seed, ...) are flattened into columns so cross-scenario SQL never parses
    JSON; the full meta dict (canonical JSON) and the line as written ride
    along as text.  ``idx_runs_point`` (v4) indexes the grid point
    ``(problem, config_name, seed)``: the ``speedup`` query joins each
    ``ours`` run to the baselines of its point, and with only
    ``idx_runs_scenario`` to search by, that self-join read every run of
    the scenario once per run -- quadratic.  The ``speedup`` query on
    ``sweep_warm``'s sink copied m times under new keys and seeds (each
    point keeps its three strategies), 2-CPU box:

    ======  =======  ===========  ============
    scale   runs     v3           v4 (index)
    ======  =======  ===========  ============
    1x      1,016    92.7 ms      2.0 ms
    4x      4,064    2,029 ms     8.3 ms
    10x     10,160   13,481 ms    25.9 ms
    100x    101,600  --           324 ms
    ======  =======  ===========  ============
``counters``
    A *view*, not a table: one ``(journal, key, simulator, schema_version,
    name, value)`` row per performance counter of both record kinds,
    derived at read time by ``json_each(raw, '$.result.counters')`` (``key``
    is a job's ``hash`` / a run's ``key``).  Up to v2 it was a stored copy:
    96% of the rows a sync wrote, 74% of the file, read only by ad-hoc SQL.
    The cost now sits on the reader; at 2,032 records (54,864 counter rows),
    table -> view: ``GROUP BY name`` 64 -> 32 ms and one record's counters
    0.02 ms either way, but nothing is indexed by name any more, so
    ``WHERE name = ?`` 3.0 -> 10.5 ms, ``jobs JOIN counters`` 4.0 -> 6.4 ms,
    ``COUNT(*)`` 0.01 -> 11 ms, linear in records.  For indexed lookups,
    ``CREATE TABLE c AS SELECT * FROM counters`` in a database of your own.
``spans`` / ``metrics``
    The telemetry journal's two record kinds, keyed by ``(journal, byte
    offset)`` -- the journal is append-only and never compacted, so the
    offset is a stable identity and incremental sync appends naturally.
    ``spans`` flattens one finished span per row (id/parent/name/start/
    duration, tags as JSON); ``metrics`` holds counter and gauge values
    plus histogram sums/counts/buckets.  Both keep the line as written in
    ``raw`` so telemetry shares the same byte-equal parity proof as results.
``journals``
    Per-journal sync state: the byte offset ingested so far, a hash of the
    journal's head (so an in-place compaction/rewrite is detected and
    triggers a clean resync of that journal), and row accounting.
``meta``
    The warehouse's own schema version; a bump drops and recreates
    everything on next open (the journals rebuild it).
"""

from __future__ import annotations

#: Bump when the warehouse table layout changes; mismatched stores are
#: dropped and rebuilt from the journals on next open.
#: v2: added the telemetry projection (``spans`` + ``metrics`` tables).
#: v3: ``counters`` became a view over ``raw`` (was a table).
#: v4: ``idx_runs_point`` on ``scenario_runs (problem, config_name, seed)``.
WAREHOUSE_SCHEMA_VERSION = 4

#: Journal kinds (the ``journals.kind`` column).
KIND_CACHE = "cache"
KIND_SINK = "sink"
KIND_TELEMETRY = "telemetry"

#: Tables holding journal-derived rows (cleared per-journal on resync).
RECORD_TABLES = ("jobs", "scenario_runs", "spans", "metrics")

#: Views over the record tables: counted by status, never written or cleared.
VIEWS = ("counters",)

#: Every name the DDL owns (what a schema reset drops, table or view).
RELATIONS = ("meta", "journals") + RECORD_TABLES + VIEWS

DDL = [
    """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS journals (
        journal   TEXT PRIMARY KEY,
        kind      TEXT NOT NULL,
        offset    BIGINT NOT NULL,
        head_len  BIGINT NOT NULL,
        head_hash TEXT NOT NULL,
        rows      BIGINT NOT NULL,
        skipped   BIGINT NOT NULL,
        synced_at DOUBLE NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS jobs (
        journal              TEXT NOT NULL,
        hash                 TEXT NOT NULL,
        simulator            TEXT NOT NULL,
        schema_version       INTEGER NOT NULL,
        problem              TEXT NOT NULL,
        category             TEXT NOT NULL,
        config_name          TEXT NOT NULL,
        hardware_parallelism INTEGER NOT NULL,
        global_size          INTEGER NOT NULL,
        local_size           INTEGER NOT NULL,
        num_workgroups       INTEGER NOT NULL,
        num_calls            INTEGER NOT NULL,
        cycles               BIGINT NOT NULL,
        sim_cycles           BIGINT NOT NULL,
        overhead_cycles      BIGINT NOT NULL,
        extrapolated         INTEGER NOT NULL,
        lane_utilization     DOUBLE NOT NULL,
        elapsed_seconds      DOUBLE NOT NULL,
        raw                  TEXT NOT NULL,
        PRIMARY KEY (journal, hash, simulator, schema_version)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS scenario_runs (
        journal          TEXT NOT NULL,
        key              TEXT NOT NULL,
        simulator        TEXT NOT NULL,
        schema_version   INTEGER NOT NULL,
        scenario         TEXT NOT NULL,
        hash             TEXT NOT NULL,
        problem          TEXT,
        category         TEXT,
        config_name      TEXT,
        strategy         TEXT,
        engine           TEXT,
        seed             INTEGER,
        scale            TEXT,
        gws              INTEGER,
        local_size       INTEGER,
        cycles           BIGINT NOT NULL,
        lane_utilization DOUBLE NOT NULL,
        elapsed_seconds  DOUBLE NOT NULL,
        meta             TEXT NOT NULL,
        raw              TEXT NOT NULL,
        PRIMARY KEY (journal, key, simulator, schema_version)
    )
    """,
    """
    CREATE VIEW IF NOT EXISTS counters AS
        SELECT j.journal AS journal, j.hash AS key, j.simulator AS simulator,
               j.schema_version AS schema_version, c.key AS name,
               CAST(c.value AS REAL) AS value
        FROM jobs AS j, json_each(j.raw, '$.result.counters') AS c
        UNION ALL
        SELECT r.journal, r.key, r.simulator, r.schema_version, c.key,
               CAST(c.value AS REAL)
        FROM scenario_runs AS r, json_each(r.raw, '$.result.counters') AS c
    """,
    """
    CREATE TABLE IF NOT EXISTS spans (
        journal  TEXT NOT NULL,
        offset   BIGINT NOT NULL,
        run      TEXT NOT NULL,
        pid      BIGINT NOT NULL,
        span_id  BIGINT NOT NULL,
        parent   BIGINT,
        name     TEXT NOT NULL,
        start    DOUBLE NOT NULL,
        duration DOUBLE NOT NULL,
        tags     TEXT NOT NULL,
        raw      TEXT NOT NULL,
        PRIMARY KEY (journal, offset)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS metrics (
        journal      TEXT NOT NULL,
        offset       BIGINT NOT NULL,
        run          TEXT NOT NULL,
        pid          BIGINT NOT NULL,
        metric_type  TEXT NOT NULL,
        name         TEXT NOT NULL,
        value        DOUBLE,
        value_sum    DOUBLE,
        observations BIGINT,
        buckets      TEXT,
        raw          TEXT NOT NULL,
        PRIMARY KEY (journal, offset)
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_jobs_problem ON jobs (problem, config_name)",
    "CREATE INDEX IF NOT EXISTS idx_runs_scenario ON scenario_runs (scenario)",
    "CREATE INDEX IF NOT EXISTS idx_runs_point "
    "ON scenario_runs (problem, config_name, seed)",
    "CREATE INDEX IF NOT EXISTS idx_spans_name ON spans (name)",
    "CREATE INDEX IF NOT EXISTS idx_metrics_name ON metrics (name)",
]
