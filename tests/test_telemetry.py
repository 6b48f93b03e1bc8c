"""Tests for the telemetry layer (repro.telemetry).

Covers the acceptance properties of the subsystem: span nesting and
worker-payload merging, the disabled path being a strict no-op (results
bit-equal with telemetry on and off), journal flush/iterate round trips,
Prometheus and Chrome-trace exports, warehouse ingest of telemetry journals
(including the schema-bump drop-and-rebuild), the progress line, and the
structured stderr logger.
"""

import json
import logging
import sys
import threading

import pytest

from repro.campaign import Campaign, CampaignRunner, JobSpec, ResultCache
from repro.sim.config import ArchConfig
from repro.telemetry import (
    DEFAULT_BUCKETS,
    ProgressLine,
    RECORDER,
    TELEMETRY_ENV,
    Recorder,
    flush,
    get_logger,
    iter_telemetry_records,
    lint_prometheus,
    payload_records,
    render_summary,
    summarize,
    to_chrome_trace,
    to_json,
    to_prometheus,
)
from repro.telemetry.log import LOG_LEVEL_ENV
from repro.warehouse import (
    KIND_TELEMETRY,
    open_store,
    parity_check,
    rebuild,
    sync,
    table_counts,
)

CONFIG = ArchConfig.from_name("1c2w4t")


def spec(**overrides) -> JobSpec:
    defaults = dict(problem="vecadd", config=CONFIG, scale="smoke", seed=0)
    defaults.update(overrides)
    return JobSpec(**defaults)


@pytest.fixture
def telemetry_on(monkeypatch):
    """Enable the process-wide recorder for one test, clean before and after."""
    monkeypatch.setenv(TELEMETRY_ENV, "1")
    RECORDER.configure_from_env()
    RECORDER.reset()
    yield RECORDER
    RECORDER.reset()
    monkeypatch.delenv(TELEMETRY_ENV, raising=False)
    RECORDER.configure_from_env()


# ----------------------------------------------------------------------
# Recorder: disabled path, spans, metrics
# ----------------------------------------------------------------------
class TestRecorderDisabled:
    def test_disabled_span_is_one_shared_null_object(self):
        recorder = Recorder(enabled=False)
        assert recorder.span("a") is recorder.span("b", tag=1)
        with recorder.span("a"):
            pass
        assert recorder.snapshot()["spans"] == []

    def test_disabled_metrics_record_nothing(self):
        recorder = Recorder(enabled=False)
        recorder.count("c")
        recorder.gauge("g", 3.0)
        recorder.observe("h", 0.5)
        recorder.record_span("s", 0.0, 1.0)
        snapshot = recorder.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["gauges"] == {}
        assert snapshot["histograms"] == {}
        assert snapshot["spans"] == []


class TestRecorderEnabled:
    def test_spans_nest_through_the_scope_stack(self):
        recorder = Recorder(enabled=True)
        with recorder.span("outer", campaign="x"):
            with recorder.span("inner"):
                pass
        spans = recorder.snapshot()["spans"]
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner, outer = spans
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert outer["tags"] == {"campaign": "x"}
        assert inner["duration"] <= outer["duration"]

    def test_record_span_attaches_under_the_open_span(self):
        recorder = Recorder(enabled=True)
        with recorder.span("outer"):
            recorder.record_span("hit", 123.0, 0.001, job_hash="abc")
        hit, outer = recorder.snapshot()["spans"]
        assert hit["name"] == "hit"
        assert hit["parent"] == outer["id"]
        assert hit["start"] == 123.0 and hit["duration"] == 0.001

    def test_counters_gauges_histograms(self):
        recorder = Recorder(enabled=True)
        recorder.count("jobs")
        recorder.count("jobs", 2)
        recorder.gauge("last", 1.0)
        recorder.gauge("last", 7.0)
        recorder.observe("wait", 0.002)
        recorder.observe("wait", 1000.0)      # beyond the last bound -> +Inf
        snapshot = recorder.snapshot()
        assert snapshot["counters"]["jobs"] == 3
        assert snapshot["gauges"]["last"] == 7.0
        histogram = snapshot["histograms"]["wait"]
        assert histogram["count"] == 2
        assert histogram["sum"] == pytest.approx(1000.002)
        assert histogram["buckets"][-1] == 1          # the implicit +Inf bucket
        assert sum(histogram["buckets"]) == histogram["count"]
        assert len(histogram["buckets"]) == len(DEFAULT_BUCKETS) + 1


class TestScopesAndMerge:
    def test_pop_scope_returns_a_detached_payload(self):
        recorder = Recorder(enabled=True)
        recorder.push_scope()
        with recorder.span("job.execute"):
            recorder.count("executed")
        payload = recorder.pop_scope()
        assert [s["name"] for s in payload["spans"]] == ["job.execute"]
        assert payload["counters"] == {"executed": 1}
        assert recorder.snapshot()["spans"] == []     # base scope untouched

    def test_popping_the_base_scope_is_an_error(self):
        with pytest.raises(RuntimeError, match="base scope"):
            Recorder(enabled=True).pop_scope()

    def test_merge_remaps_ids_and_reparents_under_the_open_span(self):
        worker = Recorder(enabled=True)
        worker.push_scope()
        with worker.span("job.execute"):
            with worker.span("engine.phase"):
                pass
            worker.observe("walk", 0.01)
        payload = worker.pop_scope()

        parent = Recorder(enabled=True)
        parent.observe("walk", 0.02)
        with parent.span("campaign.run"):
            parent.merge(payload)
        spans = {s["name"]: s for s in parent.snapshot()["spans"]}
        run = spans["campaign.run"]
        job = spans["job.execute"]
        phase = spans["engine.phase"]
        assert job["parent"] == run["id"]             # root re-parented
        assert phase["parent"] == job["id"]           # nesting preserved
        assert len({s["id"] for s in spans.values()}) == 3
        histogram = parent.snapshot()["histograms"]["walk"]
        assert histogram["count"] == 2                # bucket-wise merge
        assert histogram["sum"] == pytest.approx(0.03)

    def test_concurrent_jobs_on_two_threads_keep_their_own_scopes(
            self, telemetry_on, monkeypatch):
        # Both jobs sit inside an open "phase" span at the same moment, and
        # job A finishes first: neither may push, record into or pop the
        # other's scope.
        import repro.campaign.worker as worker

        both_open = threading.Barrier(2, timeout=30)
        b_may_finish = threading.Event()
        real_run_spec = worker.run_spec

        def phased(job_spec, engine=None):
            with RECORDER.span("phase", seed=job_spec.seed):
                both_open.wait()
                if job_spec.seed == 1:
                    assert b_may_finish.wait(timeout=30)
                return real_run_spec(job_spec, engine)

        monkeypatch.setattr(worker, "run_spec", phased)
        specs = {"A": spec(seed=0), "B": spec(seed=1)}
        outcomes = {}

        def run(name):
            outcomes[name] = worker.execute_job(specs[name])
            if name == "A":
                b_may_finish.set()

        threads = [threading.Thread(target=run, args=(name,)) for name in specs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        for name, job_spec in specs.items():
            payload = outcomes[name].telemetry["spans"]
            assert sorted(s["name"] for s in payload) == ["job.execute", "phase"]
            job, phase = sorted(payload, key=lambda s: s["name"])
            assert job["tags"]["job_hash"] == job_spec.content_hash()
            assert phase["tags"]["seed"] == job_spec.seed
            assert job["parent"] is None
            assert phase["parent"] == job["id"]
        assert RECORDER.snapshot()["spans"] == []     # base scope untouched

    def test_merge_into_a_disabled_recorder_is_a_no_op(self):
        recorder = Recorder(enabled=False)
        recorder.merge({"spans": [{"id": 1, "parent": None, "name": "x",
                                   "start": 0, "duration": 0, "tags": {}}],
                        "counters": {"c": 1}})
        assert recorder.snapshot()["spans"] == []


# ----------------------------------------------------------------------
# Campaign integration: worker payloads, bit-identity
# ----------------------------------------------------------------------
class TestCampaignTelemetry:
    def test_worker_pool_telemetry_merges_into_the_parent(self, telemetry_on):
        specs = [spec(seed=s) for s in range(3)]
        runner = CampaignRunner(workers=2)
        with RECORDER.span("campaign.wrapper"):
            runner.run(Campaign(name="t", specs=specs))
        snapshot = RECORDER.snapshot()
        executes = [s for s in snapshot["spans"] if s["name"] == "job.execute"]
        assert len(executes) == 3                     # one per distinct job
        runs = [s for s in snapshot["spans"] if s["name"] == "campaign.run"]
        assert len(runs) == 1
        assert all(e["parent"] == runs[0]["id"] for e in executes)
        assert snapshot["counters"]["campaign.jobs.executed"] == 3
        assert snapshot["histograms"]["campaign.queue_wait_seconds"]["count"] == 3

    def test_outcomes_never_carry_telemetry_payloads(self, telemetry_on, tmp_path):
        runner = CampaignRunner(cache=ResultCache(tmp_path))
        outcome = runner.run(Campaign(name="t", specs=[spec(), spec()]))
        assert all(r.telemetry is None for r in outcome.results)
        # cache-served second run: hit spans, still no payloads on results
        warm = CampaignRunner(cache=ResultCache(tmp_path)).run(
            Campaign(name="t", specs=[spec()]))
        assert warm.results[0].from_cache
        assert warm.results[0].telemetry is None
        hits = [s for s in RECORDER.snapshot()["spans"]
                if s["name"] == "job.cache_hit"]
        assert len(hits) == 1

    def test_results_are_bit_equal_with_telemetry_on_and_off(self, monkeypatch):
        specs = [spec(), spec(problem="relu"), spec(local_size=2)]

        monkeypatch.delenv(TELEMETRY_ENV, raising=False)
        RECORDER.configure_from_env()
        off = CampaignRunner().run(Campaign(name="t", specs=specs))

        monkeypatch.setenv(TELEMETRY_ENV, "1")
        RECORDER.configure_from_env()
        RECORDER.reset()
        try:
            on = CampaignRunner().run(Campaign(name="t", specs=specs))
            assert RECORDER.snapshot()["spans"]       # telemetry really ran
        finally:
            RECORDER.reset()
            monkeypatch.delenv(TELEMETRY_ENV, raising=False)
            RECORDER.configure_from_env()
        def simulated(outcome):
            # elapsed_seconds is wall-clock: it differs between ANY two runs.
            # Everything the simulator computed must be bit-equal.
            row = outcome.to_dict()
            row.pop("elapsed_seconds")
            return row

        assert [simulated(r) for r in off.results] == \
               [simulated(r) for r in on.results]


class TestSinkTelemetry:
    def test_appends_count_records_and_timings_count_commits(self, telemetry_on,
                                                             tmp_path):
        from repro.scenarios import REGISTRY, Planner, ResultSink, ScenarioContext

        scenario = REGISTRY.get("scaling")
        context = ScenarioContext(scale="smoke", sweep="smoke")

        def run(name):
            planner = Planner(CampaignRunner(cache=ResultCache(tmp_path / "cache")))
            RECORDER.reset()
            stats = planner.run(scenario, context,
                                sink=ResultSink(tmp_path / name)).stats
            snapshot = RECORDER.snapshot()
            return (stats.unique, snapshot["counters"]["sink.appends"],
                    snapshot["histograms"]["sink.append_seconds"]["count"],
                    snapshot["histograms"]["sink.fsync_seconds"]["count"])

        unique, appends, append_obs, fsync_obs = run("cold.jsonl")
        assert appends == append_obs == fsync_obs == unique    # one commit each
        unique, appends, append_obs, fsync_obs = run("warm.jsonl")
        assert appends == unique                    # still counts *records*
        assert append_obs == fsync_obs == 1         # ...in one shared commit
        # the same records either way (elapsed_seconds is the cached value)
        assert (tmp_path / "cold.jsonl").read_bytes() == \
               (tmp_path / "warm.jsonl").read_bytes()


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_flush_and_iterate_round_trip(self, telemetry_on, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with RECORDER.span("campaign.run", jobs=2):
            RECORDER.count("jobs", 2)
            RECORDER.observe("wait", 0.5)
        written = flush(RECORDER, path=path, run="r1")
        assert written == 3                           # 1 span + 2 metrics
        records = list(iter_telemetry_records(path))
        assert len(records) == 3
        kinds = sorted(r["kind"] for r in records)
        assert kinds == ["metric", "metric", "span"]
        assert all(r["run"] == "r1" for r in records)
        span = next(r for r in records if r["kind"] == "span")
        assert span["name"] == "campaign.run" and span["tags"] == {"jobs": 2}

    def test_flush_drains_so_repeated_flushes_append_deltas(self, telemetry_on,
                                                            tmp_path):
        path = tmp_path / "telemetry.jsonl"
        RECORDER.count("jobs")
        assert flush(RECORDER, path=path) == 1
        assert flush(RECORDER, path=path) == 0        # drained: nothing new
        RECORDER.count("jobs")
        assert flush(RECORDER, path=path) == 1
        values = [r["value"] for r in iter_telemetry_records(path)]
        assert values == [1, 1]                       # deltas, not re-writes

    def test_empty_flush_creates_no_file(self, telemetry_on, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        assert flush(RECORDER, path=path) == 0
        assert not path.exists()

    def test_half_written_tail_is_repaired_not_fatal(self, telemetry_on,
                                                     tmp_path):
        path = tmp_path / "telemetry.jsonl"
        RECORDER.count("a")
        flush(RECORDER, path=path)
        with path.open("a") as journal:
            journal.write('{"kind": "span", "half')   # a crash mid-append
        RECORDER.count("b")
        flush(RECORDER, path=path)
        names = sorted(r["name"] for r in iter_telemetry_records(path))
        assert names == ["a", "b"]


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
def _sample_records():
    recorder = Recorder(enabled=True)
    with recorder.span("campaign.run", campaign="t"):
        with recorder.span("job.execute", problem="vecadd"):
            pass
    recorder.count("campaign.jobs.executed", 4)
    recorder.gauge("campaign.last_run.jobs", 4)
    recorder.observe("campaign.queue_wait_seconds", 0.01)
    recorder.observe("campaign.queue_wait_seconds", 2.0)
    return payload_records(recorder.drain(), run="r1", pid=42)


class TestExports:
    def test_summary_aggregates_spans_and_metrics(self):
        summary = summarize(_sample_records())
        assert summary["spans_total"] == 2
        assert summary["spans"]["campaign.run"]["count"] == 1
        assert summary["counters"]["campaign.jobs.executed"] == 4
        assert summary["gauges"]["campaign.last_run.jobs"] == 4
        assert summary["histograms"]["campaign.queue_wait_seconds"]["count"] == 2
        text = render_summary(summary)
        assert "campaign.run" in text and "2 span(s)" in text
        json.loads(to_json(summary))                  # valid, stable JSON

    def test_empty_summary_says_how_to_enable(self):
        text = render_summary(summarize([]))
        assert "no telemetry recorded yet" in text

    def test_prometheus_export_passes_the_lint(self):
        text = to_prometheus(summarize(_sample_records()))
        assert lint_prometheus(text) == []
        assert "# TYPE repro_campaign_jobs_executed counter" in text
        assert 'repro_campaign_queue_wait_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_span_campaign_run_seconds_total" in text

    def test_prometheus_lint_catches_violations(self):
        assert lint_prometheus("not a metric line!\n")
        broken = ("# TYPE repro_h histogram\n"
                  'repro_h_bucket{le="+Inf"} 3\n'
                  "repro_h_sum 1\n"
                  "repro_h_count 2\n")
        assert any("+Inf bucket" in v for v in lint_prometheus(broken))
        assert any("no TYPE" in v for v in lint_prometheus("untyped_sample 1\n"))

    def test_chrome_trace_round_trips(self):
        records = _sample_records()
        spans = [r for r in records if r["kind"] == "span"]
        trace = to_chrome_trace(records)
        assert trace["traceEvents"] and all(
            e["ph"] == "X" for e in trace["traceEvents"])
        # Every span comes back from its event: name, duration, id,
        # parent and tags (the args minus the two id fields).
        events = trace["traceEvents"]
        assert [e["name"] for e in events] == [s["name"] for s in spans]
        for original, event in zip(spans, events):
            args = dict(event["args"])
            assert args.pop("span_id") == original["id"]
            assert args.pop("parent") == original["parent"]
            assert args == original["tags"]
            assert event["dur"] / 1e6 == pytest.approx(
                original["duration"], abs=1e-9)


# ----------------------------------------------------------------------
# Warehouse ingest
# ----------------------------------------------------------------------
@pytest.fixture
def telemetry_journal(tmp_path):
    path = tmp_path / "tele" / "telemetry.jsonl"
    path.parent.mkdir(parents=True)
    with path.open("w") as journal:
        for record in _sample_records():
            journal.write(json.dumps(record, sort_keys=True) + "\n")
    return path


class TestWarehouseIngest:
    def test_sync_projects_spans_and_metrics_tables(self, tmp_path,
                                                    telemetry_journal):
        with open_store(tmp_path / "wh.sqlite") as store:
            report = sync(store, journals=[(telemetry_journal, KIND_TELEMETRY)])
            assert report.ingested == 5               # 2 spans + 3 metric rows
            counts = table_counts(store)
            assert counts["spans"] == 2
            assert counts["metrics"] == 3
            names = [row[0] for row in store.query(
                "SELECT name FROM spans ORDER BY offset").rows]
            assert names == ["job.execute", "campaign.run"]
            histogram = store.query(
                "SELECT value_sum, observations, buckets FROM metrics "
                "WHERE metric_type = 'histogram'").rows
            assert len(histogram) == 1
            value_sum, observations, buckets = histogram[0]
            assert observations == 2
            assert value_sum == pytest.approx(2.01)
            assert len(json.loads(buckets)) == len(DEFAULT_BUCKETS) + 1

    def test_sync_is_incremental_and_parity_holds(self, tmp_path,
                                                  telemetry_journal):
        journals = [(telemetry_journal, KIND_TELEMETRY)]
        with open_store(tmp_path / "wh.sqlite") as store:
            sync(store, journals=journals)
            assert sync(store, journals=journals).ingested == 0   # no-op
            with telemetry_journal.open("a") as journal:
                journal.write(json.dumps(
                    {"schema": 1, "simulator": _sample_records()[0]["simulator"],
                     "run": "r2", "pid": 43, "kind": "metric",
                     "type": "counter", "name": "late", "value": 1.0},
                    sort_keys=True) + "\n")
            assert sync(store, journals=journals).ingested == 1   # the append
            assert parity_check(store, journals=journals) == []

    def test_parity_detects_tampered_telemetry_rows(self, tmp_path,
                                                    telemetry_journal):
        journals = [(telemetry_journal, KIND_TELEMETRY)]
        with open_store(tmp_path / "wh.sqlite") as store:
            sync(store, journals=journals)
            store.execute("UPDATE spans SET raw = '{}' "
                          "WHERE name = 'campaign.run'")
            store.commit()
            assert parity_check(store, journals=journals)

    def test_rebuild_after_schema_bump_recovers_telemetry(self, tmp_path,
                                                          telemetry_journal):
        path = tmp_path / "wh.sqlite"
        journals = [(telemetry_journal, KIND_TELEMETRY)]
        with open_store(path) as store:
            sync(store, journals=journals)
            store.execute("UPDATE meta SET value = '0' "
                          "WHERE key = 'schema_version'")
        with open_store(path) as store:
            # the version bump dropped every derived row...
            assert table_counts(store)["spans"] == 0
            # ...and a rebuild re-derives them from the journal, with parity.
            rebuild(store, journals=journals)
            assert table_counts(store)["spans"] == 2
            assert parity_check(store, journals=journals) == []


# ----------------------------------------------------------------------
# Progress line
# ----------------------------------------------------------------------
class _FakeStream:
    def __init__(self, tty):
        self.tty = tty
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)

    def flush(self):
        pass

    def isatty(self):
        return self.tty


class TestProgressLine:
    def test_render_text_reports_done_hits_rate_eta(self):
        line = ProgressLine(total=4, label="scaling",
                            stream=_FakeStream(tty=False))
        line.update(hit=True)
        line.update()
        text = line.render_text()
        assert text.startswith("scaling 2/4 (50%)")
        assert "hit 50%" in text
        assert "jobs/s" in text and "ETA" in text

    def test_tty_rewrites_in_place(self):
        stream = _FakeStream(tty=True)
        line = ProgressLine(total=2, stream=stream)
        line.update()
        line.update()
        line.finish()
        assert all(chunk.startswith("\r") for chunk in stream.chunks[:-1])
        assert stream.chunks[-1] == "\n"

    def test_non_tty_prints_one_line_per_bucket(self):
        stream = _FakeStream(tty=False)
        line = ProgressLine(total=100, stream=stream)
        for _ in range(100):
            line.update()
        line.finish()
        assert 9 <= len(stream.chunks) <= 12          # ~10% buckets, not 100
        assert all(chunk.endswith("\n") for chunk in stream.chunks)
        assert "100/100 (100%)" in stream.chunks[-1]


# ----------------------------------------------------------------------
# Structured logger
# ----------------------------------------------------------------------
class TestLogger:
    def test_logs_go_to_stderr_with_key_value_fields(self, capsys):
        get_logger("test").info("scenario done", scenario="scaling", jobs=6)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repro: scenario done scenario=scaling jobs=6" in captured.err

    def test_level_comes_from_the_environment(self, monkeypatch, capsys):
        monkeypatch.setenv(LOG_LEVEL_ENV, "ERROR")
        from repro.telemetry.log import configure_from_env
        configure_from_env()
        log = get_logger("test")
        log.info("hidden")
        log.error("shown")
        err = capsys.readouterr().err
        assert "hidden" not in err and "shown" in err
        monkeypatch.setenv(LOG_LEVEL_ENV, "INFO")
        configure_from_env()

    def test_logger_names_nest_under_repro(self):
        assert get_logger("cli")._logger.name == "repro.cli"
        assert get_logger()._logger.name == "repro"
        assert isinstance(logging.getLogger("repro.cli"), logging.Logger)
