"""Tests for the results warehouse (repro.warehouse).

Covers the sqlite store (schema creation and reset, read-only opens), the
ingest pipeline's incremental sync + rewrite detection, rebuild parity and
idempotence against hostile journals (half-written tails, superseded
duplicates, in-place compaction), the canned analytics, the raw-SQL guard,
and the rows real scenario runs leave behind.
"""

import json
import sqlite3

import pytest

from repro.campaign.cache import CACHE_FILE_NAME, ResultCache, read_cache_line
from repro.campaign.journal import Journal, parse_line
from repro.campaign.result import JobResult
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CACHE_SCHEMA_VERSION, simulator_version
from repro.scenarios import Planner, ResultSink, ScenarioContext, SinkRecord
from repro.scenarios.sink import read_sink_line
from repro.telemetry import Recorder, flush
from repro.warehouse import (
    KIND_CACHE,
    KIND_SINK,
    KIND_TELEMETRY,
    WarehouseError,
    journal_id,
    open_store,
    parity_check,
    rebuild,
    render_status,
    run_canned,
    run_sql,
    sync,
    table_counts,
)
from repro.warehouse.queries import CANNED
from repro.warehouse.schema import WAREHOUSE_SCHEMA_VERSION

from tests.test_scenarios import tiny_scenario

SMOKE = ScenarioContext(scale="smoke", sweep="smoke")


# ----------------------------------------------------------------------
# Synthetic journal records (no simulation needed)
# ----------------------------------------------------------------------
def result_dict(job_hash="h0", problem="vecadd", config="1c2w2t",
                cycles=100, lws=1, **overrides):
    data = {
        "job_hash": job_hash, "problem": problem, "category": "math",
        "config_name": config, "hardware_parallelism": 4, "global_size": 64,
        "local_size": lws, "num_workgroups": 64, "num_calls": 1,
        "cycles": cycles, "sim_cycles": cycles, "overhead_cycles": 0,
        "extrapolated": False, "lane_utilization": 1.0,
        "counters": {"cycles": float(cycles), "instructions_executed": 10.0},
        "elapsed_seconds": 0.01,
    }
    data.update(overrides)
    return data


def cache_record(job_hash, **overrides):
    return {
        "hash": job_hash,
        "schema": CACHE_SCHEMA_VERSION,
        "simulator": simulator_version(),
        "spec": {"problem": "vecadd"},
        "result": result_dict(job_hash=job_hash, **overrides),
    }


def sink_line(key, job_hash, scenario="tiny", strategy="ours", **overrides):
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "simulator": simulator_version(),
        "key": key, "hash": job_hash, "scenario": scenario,
        "spec": {"problem": "vecadd"},
        "meta": {"scenario": scenario, "problem": "vecadd", "config": "1c2w2t",
                 "strategy": strategy, "engine": None, "seed": 0,
                 "scale": "smoke", "size": None, "gws": 64},
        "result": result_dict(job_hash=job_hash, **overrides),
    }


def write_journal(path, records):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                            for r in records))
    return path


def dump(store):
    """Every derived row, ordered -- the warehouse's comparable contents."""
    return {table: sorted(map(tuple, store.query(f"SELECT * FROM {table}").rows))
            for table in ("jobs", "scenario_runs", "counters")}


@pytest.fixture
def store(tmp_path):
    with open_store(tmp_path / "wh.sqlite") as handle:
        yield handle


@pytest.fixture
def cache_journal(tmp_path):
    return write_journal(tmp_path / "cache" / CACHE_FILE_NAME, [
        cache_record("h0", cycles=100, lws=1),
        cache_record("h1", cycles=80, lws=16, config="2c2w4t"),
        cache_record("h2", cycles=120, lws=4, problem="sgemm"),
    ])


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class TestBackends:
    def test_sqlite_is_the_default_and_creates_the_schema(self, store):
        assert store.path.read_bytes().startswith(b"SQLite format 3")
        assert table_counts(store) == {"jobs": 0, "scenario_runs": 0,
                                       "counters": 0, "spans": 0, "metrics": 0}

    def test_schema_version_bump_resets_the_store(self, tmp_path,
                                                  cache_journal):
        path = tmp_path / "wh.sqlite"
        with open_store(path) as handle:
            sync(handle, journals=[(cache_journal, KIND_CACHE)])
            handle.execute("UPDATE meta SET value = '0' "
                           "WHERE key = 'schema_version'")
        with open_store(path) as handle:
            assert table_counts(handle)["jobs"] == 0    # dropped, rebuildable

    def test_read_only_store_requires_an_existing_database(self, tmp_path):
        with pytest.raises(WarehouseError, match="no warehouse"):
            open_store(tmp_path / "missing.sqlite", read_only=True)

    def test_a_v2_store_with_a_counters_table_resets_and_resyncs(
            self, tmp_path, cache_journal):
        # What the parent commit left on disk: `counters` is a *table* with
        # rows and an index, the version stamp says 2.
        path = tmp_path / "wh.sqlite"
        old = sqlite3.connect(path)
        old.executescript("""
            CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
            INSERT INTO meta VALUES ('schema_version', '2');
            CREATE TABLE jobs (journal TEXT, hash TEXT, raw TEXT);
            INSERT INTO jobs VALUES ('j', 'h', '{}');
            CREATE TABLE counters (
                journal TEXT NOT NULL, key TEXT NOT NULL,
                simulator TEXT NOT NULL, schema_version INTEGER NOT NULL,
                name TEXT NOT NULL, value DOUBLE NOT NULL,
                PRIMARY KEY (journal, key, simulator, schema_version, name));
            CREATE INDEX idx_counters_name ON counters (name);
            INSERT INTO counters VALUES ('j', 'h', 's', 1, 'cycles', 1.0);
        """)
        old.close()
        journals = [(cache_journal, KIND_CACHE)]
        with open_store(path) as handle:
            assert table_counts(handle)["jobs"] == 0      # reset, not reused
            assert table_counts(handle)["counters"] == 0
            sync(handle, journals=journals)
            assert parity_check(handle, journals=journals) == []
            assert table_counts(handle)["counters"] == 6
            assert handle.query("SELECT type FROM sqlite_master "
                                "WHERE name = 'counters'").rows == [("view",)]

    def test_a_v3_store_survives_the_next_version_bump(
            self, tmp_path, cache_journal, monkeypatch):
        # The reset must drop `counters` as the view it now is.
        path = tmp_path / "wh.sqlite"
        journals = [(cache_journal, KIND_CACHE)]
        with open_store(path) as handle:
            sync(handle, journals=journals)
        monkeypatch.setattr("repro.warehouse.store.WAREHOUSE_SCHEMA_VERSION",
                            WAREHOUSE_SCHEMA_VERSION + 1)
        with open_store(path) as handle:
            assert table_counts(handle)["jobs"] == 0
            sync(handle, journals=journals)
            assert parity_check(handle, journals=journals) == []
            assert table_counts(handle)["counters"] == 6

    def test_sqlite_without_json_functions_is_named_at_open(
            self, tmp_path, monkeypatch):
        from repro.warehouse.store import ResultStore
        real_query = ResultStore.query

        def no_json(self, sql, params=()):
            if "json_valid" in sql:
                raise WarehouseError("sqlite query failed: no such function: "
                                     "json_valid")
            return real_query(self, sql, params)

        monkeypatch.setattr(ResultStore, "query", no_json)
        with pytest.raises(WarehouseError) as raised:
            open_store(tmp_path / "wh.sqlite")
        assert sqlite3.sqlite_version in str(raised.value)
        assert "JSON functions" in str(raised.value)


# ----------------------------------------------------------------------
# Incremental sync
# ----------------------------------------------------------------------
class TestSync:
    def test_cold_sync_ingests_every_record_and_counter(self, store,
                                                        cache_journal):
        report = sync(store, journals=[(cache_journal, KIND_CACHE)])
        assert report.ingested == 3
        counts = table_counts(store)
        assert counts["jobs"] == 3
        assert counts["counters"] == 6        # 2 counters per record

    def test_double_sync_is_a_no_op(self, store, cache_journal):
        journals = [(cache_journal, KIND_CACHE)]
        sync(store, journals=journals)
        before = dump(store)
        report = sync(store, journals=journals)
        assert report.ingested == 0
        assert not report.journals[0].resynced
        assert dump(store) == before

    def test_discover_journals_reports_absolute_paths(self, tmp_path,
                                                      monkeypatch):
        from repro.warehouse.ingest import discover_journals

        monkeypatch.chdir(tmp_path)
        for path, _ in discover_journals(cache_dir="cache-rel",
                                         scenario_dir="sinks-rel",
                                         telemetry_dir="tele-rel"):
            assert path.is_absolute()
            assert str(path).startswith(str(tmp_path))

    def test_trailing_blank_lines_do_not_stall_the_offset(self, store,
                                                          cache_journal):
        # Blank lines at the journal tail must be consumed, not skipped:
        # a stalled offset would make every later sync re-hash and re-read
        # the same tail forever.
        with cache_journal.open("a") as journal:
            journal.write("\n\n")
        journals = [(cache_journal, KIND_CACHE)]
        first = sync(store, journals=journals)
        assert first.journals[0].offset == cache_journal.stat().st_size
        second = sync(store, journals=journals)
        assert second.ingested == 0
        assert not second.journals[0].resynced
        assert second.journals[0].offset == first.journals[0].offset

    def test_appends_are_ingested_incrementally(self, store, cache_journal):
        journals = [(cache_journal, KIND_CACHE)]
        first = sync(store, journals=journals)
        with cache_journal.open("a") as journal:
            journal.write(json.dumps(cache_record("h3", cycles=70)) + "\n")
        second = sync(store, journals=journals)
        assert second.ingested == 1           # only the appended record
        assert not second.journals[0].resynced
        assert second.journals[0].offset > first.journals[0].offset
        assert table_counts(store)["jobs"] == 4

    def test_superseded_duplicates_keep_the_last_record(self, store, tmp_path):
        journal = write_journal(tmp_path / "dup" / CACHE_FILE_NAME, [
            cache_record("h0", cycles=100),
            cache_record("h1", cycles=80),
            cache_record("h0", cycles=90),    # concurrent re-simulation wins
        ])
        journals = [(journal, KIND_CACHE)]
        sync(store, journals=journals)
        assert table_counts(store)["jobs"] == 2
        cycles = store.query(
            "SELECT cycles FROM jobs WHERE hash = 'h0'").rows
        assert cycles == [(90,)]
        assert parity_check(store, journals=journals) == []

    def test_half_written_tail_is_invisible_until_terminated(self, store,
                                                             cache_journal):
        journals = [(cache_journal, KIND_CACHE)]
        line = json.dumps(cache_record("h3", cycles=70)) + "\n"
        with cache_journal.open("a") as journal:
            journal.write(line[: len(line) // 2])     # killed writer
        report = sync(store, journals=journals)
        assert report.ingested == 3                   # the tail is not a row
        assert report.journals[0].skipped == 0        # ...nor even seen
        assert parity_check(store, journals=journals) == []

        # The next writer terminates the tail (journal tail-repair); the
        # now-complete-but-corrupt line is skipped, the rest ingests.
        with cache_journal.open("a") as journal:
            journal.write("\n" + json.dumps(cache_record("h4", cycles=60)) + "\n")
        second = sync(store, journals=journals)
        assert second.ingested == 1
        assert second.journals[0].skipped == 1
        assert table_counts(store)["jobs"] == 4
        assert parity_check(store, journals=journals) == []

    def test_inplace_rewrite_triggers_a_clean_resync(self, store,
                                                     cache_journal):
        journals = [(cache_journal, KIND_CACHE)]
        sync(store, journals=journals)
        # Compaction-style rewrite: drop the middle record in place.
        records = [json.loads(line) for line in
                   cache_journal.read_text().splitlines()]
        write_journal(cache_journal, [records[0], records[2]])
        report = sync(store, journals=journals)
        assert report.journals[0].resynced
        assert table_counts(store)["jobs"] == 2
        assert parity_check(store, journals=journals) == []

    def test_deleted_journal_drops_its_rows(self, store, cache_journal):
        journals = [(cache_journal, KIND_CACHE)]
        sync(store, journals=journals)
        cache_journal.unlink()
        sync(store, journals=journals)
        assert table_counts(store) == {"jobs": 0, "scenario_runs": 0,
                                       "counters": 0, "spans": 0, "metrics": 0}

    def test_stale_version_records_are_kept_per_version(self, store, tmp_path):
        old = cache_record("h0", cycles=100)
        old["simulator"] = "0.0.0-ancient"
        journal = write_journal(tmp_path / "mixed" / CACHE_FILE_NAME,
                                [old, cache_record("h0", cycles=90)])
        journals = [(journal, KIND_CACHE)]
        sync(store, journals=journals)
        # Both versions survive side by side (history!), keyed by simulator.
        assert table_counts(store)["jobs"] == 2
        assert parity_check(store, journals=journals) == []
        # ...but current-version analytics only see the current row.
        assert run_canned(store, "best-lws").rows == [("vecadd", "1c2w2t", 1, 90)]


# ----------------------------------------------------------------------
# Rebuild: parity + idempotence
# ----------------------------------------------------------------------
class TestRebuildParity:
    def test_rebuild_equals_incremental_sync(self, store, cache_journal):
        journals = [(cache_journal, KIND_CACHE)]
        sync(store, journals=journals)
        with cache_journal.open("a") as journal:
            journal.write(json.dumps(cache_record("h3", cycles=70)) + "\n")
        sync(store, journals=journals)
        incremental = dump(store)
        rebuild(store, journals=journals)
        assert dump(store) == incremental

    def test_rebuild_is_idempotent(self, store, cache_journal, tmp_path):
        sink_journal = write_journal(tmp_path / "sinks" / "tiny-smoke.jsonl", [
            sink_line("k0", "h0", cycles=100),
            sink_line("k1", "h1", strategy="lws=1", cycles=150),
        ])
        journals = [(cache_journal, KIND_CACHE), (sink_journal, KIND_SINK)]
        rebuild(store, journals=journals)
        first = dump(store)
        rebuild(store, journals=journals)
        assert dump(store) == first
        assert parity_check(store, journals=journals) == []

    def test_rebuild_parity_on_a_tail_damaged_journal(self, store,
                                                      cache_journal):
        with cache_journal.open("a") as journal:
            journal.write('{"hash": "h9", "schema":')     # killed mid-record
        journals = [(cache_journal, KIND_CACHE)]
        rebuild(store, journals=journals)
        assert table_counts(store)["jobs"] == 3
        assert parity_check(store, journals=journals) == []

    def test_rebuild_parity_on_a_superseded_duplicate_journal(self, store,
                                                              tmp_path):
        journal = write_journal(tmp_path / "dup" / CACHE_FILE_NAME, [
            cache_record("h0", cycles=100),
            cache_record("h0", cycles=95),
            cache_record("h0", cycles=90),
        ])
        journals = [(journal, KIND_CACHE)]
        rebuild(store, journals=journals)
        assert table_counts(store)["jobs"] == 1
        assert store.query("SELECT cycles FROM jobs").rows == [(90,)]
        assert parity_check(store, journals=journals) == []

    def test_parity_detects_tampered_rows(self, store, cache_journal):
        journals = [(cache_journal, KIND_CACHE)]
        rebuild(store, journals=journals)
        store.execute("UPDATE jobs SET raw = '{}' WHERE hash = 'h1'")
        mismatches = parity_check(store, journals=journals)
        assert any("differs" in m for m in mismatches)

    def test_parity_detects_missing_and_phantom_rows(self, store,
                                                     cache_journal):
        journals = [(cache_journal, KIND_CACHE)]
        rebuild(store, journals=journals)
        store.execute("DELETE FROM jobs WHERE hash = 'h0'")
        assert any("missing" in m for m in parity_check(store, journals=journals))
        rebuild(store, journals=journals)
        with cache_journal.open("a") as journal:
            journal.write(json.dumps(cache_record("h5")) + "\n")
        # journal moved ahead of the warehouse: h5 is missing until a sync
        assert any("missing" in m for m in parity_check(store, journals=journals))
        sync(store, journals=journals)
        assert parity_check(store, journals=journals) == []


# ----------------------------------------------------------------------
# `raw` is the journal's own line
# ----------------------------------------------------------------------
def reordered(text):
    """The same JSON object as ``text`` with its top-level keys reversed."""
    return json.dumps(dict(reversed(list(json.loads(text).items()))))


class TestRawLines:
    def test_sync_stores_each_accepted_line_as_written(self, store, tmp_path):
        cache = tmp_path / "cache" / CACHE_FILE_NAME
        Journal(cache, read_cache_line).append(
            [cache_record("h0"), cache_record("h1", cycles=80)])
        sink = tmp_path / "sinks" / "tiny.jsonl"
        Journal(sink, read_sink_line).append(
            [sink_line("k0", "h0"), sink_line("k1", "h1", strategy="lws=1")])
        recorder = Recorder(enabled=True)
        with recorder.span("campaign.run", campaign="t"):
            recorder.count("campaign.jobs.executed", 2)
        telemetry = tmp_path / "tele" / "telemetry.jsonl"
        assert flush(recorder, path=telemetry, run="r1") == 2
        # One line per journal written without sort_keys, by another writer.
        for path, record in ((cache, cache_record("h2")),
                             (sink, sink_line("k2", "h2"))):
            with path.open("a") as journal:
                journal.write(reordered(json.dumps(record)) + "\n")
        with telemetry.open("a") as journal:
            journal.write(reordered(telemetry.read_text().splitlines()[0]) + "\n")

        journals = [(cache, KIND_CACHE), (sink, KIND_SINK),
                    (telemetry, KIND_TELEMETRY)]
        sync(store, journals=journals)
        for path, tables in ((cache, ("jobs",)), (sink, ("scenario_runs",)),
                             (telemetry, ("spans", "metrics"))):
            stored = [raw for table in tables for (raw,) in store.query(
                f"SELECT raw FROM {table} WHERE journal = ?",
                (str(path.resolve()),)).rows]
            lines = path.read_text().splitlines()
            assert sorted(stored) == sorted(lines)
            # Journal.append's lines are canonical JSON, as `raw` was before.
            for line in lines[:-1]:
                assert line == json.dumps(json.loads(line), sort_keys=True)
            assert lines[-1] != json.dumps(json.loads(lines[-1]), sort_keys=True)
        assert parity_check(store, journals=journals) == []

    def test_parity_flags_an_equal_record_in_other_json_text(
            self, store, cache_journal):
        journals = [(cache_journal, KIND_CACHE)]
        rebuild(store, journals=journals)
        (raw,) = store.query("SELECT raw FROM jobs WHERE hash = 'h1'").rows[0]
        other = reordered(raw)
        assert other != raw and json.loads(other) == json.loads(raw)
        store.execute("UPDATE jobs SET raw = ? WHERE hash = 'h1'", (other,))
        mismatches = parity_check(store, journals=journals)
        assert len(mismatches) == 1
        assert "'h1'" in mismatches[0] and "differs" in mismatches[0]

    def test_canned_query_joins_search_an_index(self, store, cache_journal,
                                                tmp_path):
        sink = write_journal(tmp_path / "s" / "tiny.jsonl", [
            sink_line("k0", "h0", strategy="ours", cycles=100),
            sink_line("k1", "h1", strategy="lws=1", cycles=150),
            sink_line("k2", "h2", strategy="lws=32", cycles=120),
        ])
        sync(store, journals=[(cache_journal, KIND_CACHE), (sink, KIND_SINK)])
        for name, canned in CANNED.items():
            plan = store.query("EXPLAIN QUERY PLAN " + canned.sql,
                               canned.params()).rows
            loops: dict = {}
            for _, parent, _, detail in plan:
                if detail.startswith(("SCAN", "SEARCH")):
                    loops.setdefault(parent, []).append(detail)
            # The outermost loop of each SELECT may scan; every loop nested
            # in it must look its rows up instead of scanning once per row.
            for steps in loops.values():
                assert not [s for s in steps[1:] if s.startswith("SCAN")], (
                    name, plan)
            if name == "speedup":
                inner = [s for steps in loops.values() for s in steps[1:]]
                assert len(inner) == 1 and inner[0].startswith("SEARCH")
                assert "USING INDEX idx_runs_point" in inner[0]


# ----------------------------------------------------------------------
# `counters`: a view over `raw`, not a stored copy
# ----------------------------------------------------------------------
class TestCountersView:
    COUNTERS = {"cycles": 100.0, "instructions_executed": 10,
                "ipc": 0.1, "third": 1 / 3, "big": 2.0 ** 60 + 2.0 ** 9,
                "tiny": 5e-324, "zero": 0}

    def test_view_rows_equal_each_records_counters_exactly(self, store,
                                                           tmp_path):
        cache_journal = write_journal(tmp_path / "c" / CACHE_FILE_NAME, [
            cache_record("h0", counters=self.COUNTERS),
            cache_record("h1", counters={"cycles": 7.5}),
            cache_record("h2", counters={}),
        ])
        sink_journal = write_journal(tmp_path / "s" / "tiny.jsonl", [
            sink_line("k0", "h0", counters=self.COUNTERS),
            sink_line("k1", "h1", counters={"stalls": 0.25, "cycles": 3}),
        ])
        sync(store, journals=[(cache_journal, KIND_CACHE),
                              (sink_journal, KIND_SINK)])
        checked = 0
        for journal, key_field in ((cache_journal, "hash"),
                                   (sink_journal, "key")):
            for record in map(parse_line, journal.read_text().splitlines()):
                expected = JobResult.from_dict(record["result"]).counters
                rows = store.query(
                    "SELECT name, value FROM counters "
                    "WHERE journal = ? AND key = ?",
                    (str(journal.resolve()), record[key_field])).rows
                assert len(rows) == len(expected)
                assert dict(rows) == {name: float(value)
                                      for name, value in expected.items()}
                assert all(type(value) is float for _, value in rows)
                checked += 1
        assert checked == 5
        # the other four columns are the owning row's
        assert store.query(
            "SELECT DISTINCT simulator, schema_version FROM counters").rows == [
                (simulator_version(), CACHE_SCHEMA_VERSION)]

    def test_a_superseding_record_leaves_no_stale_counter(self, store,
                                                          tmp_path):
        journal = write_journal(tmp_path / "dup" / CACHE_FILE_NAME, [
            cache_record("h0", counters={"cycles": 100.0, "stalls": 4.0}),
        ])
        journals = [(journal, KIND_CACHE)]
        sync(store, journals=journals)
        with journal.open("a") as handle:     # same slot, `stalls` dropped
            handle.write(json.dumps(cache_record(
                "h0", counters={"cycles": 90.0, "loads": 2.0})) + "\n")
        report = sync(store, journals=journals)
        assert not report.journals[0].resynced        # incremental upsert
        assert sorted(store.query(
            "SELECT name, value FROM counters WHERE key = 'h0'").rows) == [
                ("cycles", 90.0), ("loads", 2.0)]
        assert parity_check(store, journals=journals) == []

    def test_cache_compaction_then_resync_equals_a_fresh_rebuild(
            self, store, tmp_path):
        cache_dir = tmp_path / "cache"
        journal = write_journal(cache_dir / CACHE_FILE_NAME, [
            cache_record("h0", cycles=100),
            cache_record("h1", cycles=80),
            cache_record("h0", cycles=90, counters={"cycles": 90.0}),
        ])
        journals = [(journal, KIND_CACHE)]
        sync(store, journals=journals)
        before = journal.stat().st_size
        assert ResultCache(cache_dir).stats().compacted_lines == 1  # in place
        assert journal.stat().st_size < before
        report = sync(store, journals=journals)
        assert report.journals[0].resynced
        assert parity_check(store, journals=journals) == []
        with open_store(tmp_path / "fresh.sqlite") as fresh:
            rebuild(fresh, journals=journals)
            assert dump(store) == dump(fresh)
        assert len(dump(store)["counters"]) == 3      # 2 for h1 + 1 for h0

    def test_counters_are_queryable_through_the_read_only_connection(
            self, tmp_path, cache_journal):
        path = tmp_path / "wh.sqlite"
        with open_store(path) as handle:
            sync(handle, journals=[(cache_journal, KIND_CACHE)])
        with open_store(path, read_only=True) as handle:
            assert run_sql(handle, "SELECT COUNT(*) FROM counters").rows == [(6,)]
            assert run_sql(
                handle, "SELECT j.problem, c.value FROM jobs j JOIN counters c "
                        "ON c.journal = j.journal AND c.key = j.hash "
                        "WHERE c.name = 'cycles' ORDER BY c.value").rows == [
                ("vecadd", 80.0), ("vecadd", 100.0), ("sgemm", 120.0)]


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
class TestQueries:
    def test_best_lws_picks_the_minimum_cycles_row(self, store, tmp_path):
        journal = write_journal(tmp_path / "c" / CACHE_FILE_NAME, [
            cache_record("h0", cycles=100, lws=1),
            cache_record("h1", cycles=80, lws=16),
            cache_record("h2", cycles=95, lws=32),
        ])
        sync(store, journals=[(journal, KIND_CACHE)])
        assert run_canned(store, "best-lws").rows == [("vecadd", "1c2w2t", 16, 80)]

    def test_speedup_compares_baselines_against_ours(self, store, tmp_path):
        journal = write_journal(tmp_path / "s" / "tiny.jsonl", [
            sink_line("k0", "h0", strategy="ours", cycles=100),
            sink_line("k1", "h1", strategy="lws=1", cycles=150),
        ])
        sync(store, journals=[(journal, KIND_SINK)])
        rows = run_canned(store, "speedup").rows
        assert len(rows) == 1
        problem, baseline, points, avg_ratio, worst_ratio = rows[0]
        assert (problem, baseline, points) == ("vecadd", "lws=1", 1)
        assert avg_ratio == pytest.approx(1.5)
        assert worst_ratio == pytest.approx(1.5)

    def test_cache_trends_and_scenarios_summaries(self, store, cache_journal,
                                                  tmp_path):
        sink_journal = write_journal(tmp_path / "s" / "tiny.jsonl",
                                     [sink_line("k0", "h0")])
        sync(store, journals=[(cache_journal, KIND_CACHE),
                              (sink_journal, KIND_SINK)])
        trends = run_canned(store, "cache-trends")
        assert trends.rows[0][0] == simulator_version()
        assert trends.rows[0][1] == 3
        scenarios = run_canned(store, "scenarios")
        assert scenarios.rows[0][0] == "tiny"

    def test_unknown_canned_query_lists_the_names(self, store):
        with pytest.raises(WarehouseError, match="best-lws"):
            run_canned(store, "nope")

    def test_raw_sql_is_select_only(self, store):
        assert run_sql(store, "SELECT 1 AS one").rows == [(1,)]
        assert run_sql(store, "  WITH t AS (SELECT 2 AS v) "
                              "SELECT v FROM t ;").rows == [(2,)]
        for bad in ("DELETE FROM jobs", "DROP TABLE jobs",
                    "SELECT 1; DELETE FROM jobs", ""):
            with pytest.raises(WarehouseError):
                run_sql(store, bad)
        with pytest.raises(WarehouseError, match="sqlite query failed"):
            run_sql(store, "SELECT * FROM no_such_table")

    def test_query_result_renders_as_a_table(self, store, cache_journal):
        sync(store, journals=[(cache_journal, KIND_CACHE)])
        text = run_canned(store, "best-lws").render()
        assert "| problem |" in text
        assert "vecadd" in text

    def test_render_status_reports_tables_and_offsets(self, store,
                                                     cache_journal):
        sync(store, journals=[(cache_journal, KIND_CACHE)])
        text = render_status(store)
        assert "jobs            : 3 row(s)" in text
        assert "counters        : 6 row(s)" in text       # the view, counted
        assert "(synced)" in text
        assert "sqlite backend" in text


# ----------------------------------------------------------------------
# End to end against real scenario runs
# ----------------------------------------------------------------------
class TestScenarioIntegration:
    def test_sink_rows_round_trip_through_the_warehouse(self, store,
                                                        tmp_path):
        scenario = tiny_scenario(strategies=("ours", "lws=1"))
        sink = ResultSink(tmp_path / "sinks" / "tiny-smoke.jsonl")
        cache = ResultCache(tmp_path / "cache")
        Planner(runner=CampaignRunner(cache=cache)).run(
            scenario, SMOKE, sink=sink)

        journals = [(cache.journal_path, KIND_CACHE), (sink.path, KIND_SINK)]
        sync(store, journals=journals)
        assert parity_check(store, journals=journals) == []
        journal = (journal_id(sink.path),)
        assert store.query("SELECT offset FROM journals WHERE journal = ?",
                           journal).rows == [(sink.path.stat().st_size,)]

        rows = store.query("SELECT key, raw FROM scenario_runs "
                           "WHERE journal = ?", journal).rows
        from_warehouse = {key: SinkRecord.from_dict(json.loads(raw))
                          for key, raw in rows}
        assert from_warehouse == sink.load()

    def test_meta_tags_become_queryable_columns(self, store, tmp_path):
        scenario = tiny_scenario(strategies=("ours", "lws=1"))
        sink = ResultSink(tmp_path / "sinks" / "tiny-smoke.jsonl")
        Planner().run(scenario, SMOKE, sink=sink)
        sync(store, journals=[(sink.path, KIND_SINK)])
        rows = store.query(
            "SELECT DISTINCT strategy FROM scenario_runs ORDER BY strategy").rows
        assert rows == [("lws=1",), ("ours",)]
        configs = store.query(
            "SELECT COUNT(DISTINCT config_name) FROM scenario_runs").rows
        assert configs == [(2,)]
