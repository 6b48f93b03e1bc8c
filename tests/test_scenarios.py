"""Tests for the declarative scenario layer (repro.scenarios).

Covers the registry round-trip, planner grid expansion and execution dedup,
kill-and-resume from a half-written JSONL sink, and -- most importantly --
bit-identical equality of the figure1/figure2/ablation/claims scenarios
against what the pre-refactor experiment drivers submitted and returned
(frozen in ``tests/golden/experiments_smoke.json``).
"""

import json
import os
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.runner import CampaignRunner
from repro.experiments.ablation import boundedness_record_from_job
from repro.experiments.claims import evaluate_claims
from repro.experiments.figure1 import summarize_figure1_launch
from repro.experiments.report import render_figure2_table
from repro.scenarios import (
    GridAxes,
    Planner,
    REGISTRY,
    ResultSink,
    Scenario,
    ScenarioContext,
    ScenarioError,
    ScenarioRegistry,
    SinkRecord,
    UnknownScenarioError,
)
from repro.scenarios.library import figure2_result_from_run
from repro.sim.config import ArchConfig

from scenario_helpers import check_golden, sweep_row, sweep_scenario

SMOKE = ScenarioContext(scale="smoke", sweep="smoke")


def tiny_scenario(name="tiny", strategies=("ours",), engines=(None,)):
    """A two-config vecadd scenario for planner/sink mechanics."""
    return Scenario(
        name=name,
        description="test scenario",
        grid=GridAxes(
            problems=("vecadd",),
            configs=(ArchConfig.from_name("1c2w2t"), ArchConfig.from_name("2c2w4t")),
            strategies=strategies,
            engines=engines,
        ),
        analyze=lambda run: "\n".join(
            f"{r.meta['config']}/{r.meta['strategy']}: {r.result.cycles}"
            for r in run.records),
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_round_trip_and_order(self):
        registry = ScenarioRegistry()
        a, b = tiny_scenario("a"), tiny_scenario("b")
        assert registry.register(a) is a
        registry.register(b)
        assert registry.get("a") is a
        assert registry.names() == ["a", "b"]
        assert "a" in registry and "missing" not in registry
        assert list(registry) == [a, b]

    def test_duplicate_names_are_rejected_unless_replaced(self):
        registry = ScenarioRegistry()
        registry.register(tiny_scenario("dup"))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(tiny_scenario("dup"))
        replacement = tiny_scenario("dup")
        registry.register(replacement, replace=True)
        assert registry.get("dup") is replacement

    def test_unknown_scenario_error_lists_names(self):
        registry = ScenarioRegistry()
        registry.register(tiny_scenario("only"))
        with pytest.raises(UnknownScenarioError, match="only"):
            registry.get("nope")

    def test_builtin_library_registers_all_eight(self):
        for name in ("figure1", "figure2", "ablation", "claims", "scaling",
                     "scheduler-sweep", "engine-compare", "cache-sensitivity"):
            assert name in REGISTRY
        assert len(REGISTRY) >= 8


# ----------------------------------------------------------------------
# Planner expansion + dedup
# ----------------------------------------------------------------------
class TestPlanner:
    def test_expansion_covers_the_cross_product(self):
        scenario = tiny_scenario(strategies=("lws=1", "lws=32", "ours"))
        plan = Planner().plan(scenario, SMOKE)
        assert len(plan) == 2 * 3           # configs x strategies
        assert [j.meta["strategy"] for j in plan[:3]] == ["lws=1", "lws=32", "ours"]
        # strategies are resolved to concrete lws values at planning time
        assert all(j.spec.local_size is not None for j in plan)

    def test_colliding_strategies_dedup_execution_but_keep_grid_points(self):
        # On these tiny machines (hp >= gws at smoke scale is false, but
        # lws=1 and "naive" coincide by construction) two strategy labels
        # resolve to the same spec -> one execution, two records.
        scenario = tiny_scenario(strategies=("lws=1", "naive-lws1"))
        planner = Planner()
        plan = planner.plan(scenario, SMOKE)
        unique = planner.unique_jobs(plan)
        assert len(plan) == 4 and len(unique) == 2
        run = planner.run(scenario, SMOKE)
        assert run.stats.planned == 4
        assert run.stats.unique == 2
        assert run.stats.executed == 2
        assert len(run.records) == 4        # every grid point has a record
        by_strategy = {r.meta["strategy"] for r in run.records}
        assert by_strategy == {"lws=1", "naive-lws1"}

    def test_records_are_copied_only_when_their_meta_differs(
            self, tmp_path, monkeypatch):
        import repro.scenarios.planner as planner_module

        real_replace = planner_module.replace
        copies = []

        def counting_replace(record, **changes):
            copies.append(changes["meta"]["strategy"])
            return real_replace(record, **changes)

        monkeypatch.setattr(planner_module, "replace", counting_replace)

        # No duplicates: every record already carries its point's meta.
        sink = ResultSink(tmp_path / "plain.jsonl")
        run = Planner().run(tiny_scenario(strategies=("lws=1", "ours")),
                            SMOKE, sink=sink)
        loaded = Planner().load(tiny_scenario(strategies=("lws=1", "ours")),
                                SMOKE, sink=sink)
        assert copies == []
        assert [r.meta for r in loaded.records] == [j.meta for j in run.plan]

        # A point that deduplicated gets a copy with its own strategy tag.
        scenario = tiny_scenario(strategies=("lws=1", "naive-lws1"))
        sink = ResultSink(tmp_path / "dedup.jsonl")
        run = Planner().run(scenario, SMOKE, sink=sink)
        assert copies == ["naive-lws1"] * 2          # one per config
        loaded = Planner().load(scenario, SMOKE, sink=sink)
        assert copies == ["naive-lws1"] * 4
        for records in (run.records, loaded.records):
            assert [r.meta["strategy"] for r in records] == [
                "lws=1", "naive-lws1"] * 2

    def test_engine_axis_executes_each_point_per_engine(self):
        scenario = tiny_scenario(engines=("reference", "fast"))
        run = Planner().run(scenario, SMOKE)
        assert run.stats.unique == 4        # 2 configs x 2 engines
        ref = {r.key: r for r in run.records if r.meta["engine"] == "reference"}
        fast = {r.key: r for r in run.records if r.meta["engine"] == "fast"}
        assert len(ref) == len(fast) == 2
        for key, record in ref.items():
            twin = fast[key.replace("reference:", "fast:")]
            assert record.result.cycles == twin.result.cycles
            assert record.result.counters == twin.result.counters

    def test_failures_raise_after_sinking_successes(self, tmp_path, monkeypatch):
        import repro.campaign.worker as worker

        real_run_spec = worker.run_spec

        def flaky(spec, engine=None):
            if spec.config.name == "2c2w4t":
                raise ValueError("injected failure")
            return real_run_spec(spec, engine)

        monkeypatch.setattr(worker, "run_spec", flaky)
        scenario = tiny_scenario()
        sink = ResultSink(tmp_path / "failing.jsonl")
        with pytest.raises(ScenarioError, match="1 of") as raised:
            Planner().run(scenario, SMOKE, sink=sink)
        assert str(sink.path) in str(raised.value)
        assert len(sink.load()) == 1        # the good job survived the kill

        # a sink-less run has nothing to resume from and says no such thing
        with pytest.raises(ScenarioError, match="1 of") as raised:
            Planner().run(scenario, SMOKE)
        assert "sink" not in str(raised.value)
        assert "resume" not in str(raised.value)

        # resume retries only the failed point once the fault is gone
        monkeypatch.setattr(worker, "run_spec", real_run_spec)
        run = Planner().run(scenario, SMOKE,
                            sink=ResultSink(tmp_path / "failing.jsonl"))
        assert run.stats.resumed == 1
        assert run.stats.executed == 1

    def test_shards_preserve_submission_order(self):
        # Two engines interleave in grid order, so the per-engine shards
        # run out of submission order; the records must come back in it.
        scenario = tiny_scenario(strategies=("lws=1", "lws=32", "ours"),
                                 engines=("fast", "reference"))
        run = Planner().run(scenario, SMOKE)
        assert [j.engine for j in run.plan][:2] == ["fast", "reference"]
        assert [r.key for r in run.records] == [j.key() for j in run.plan]


# ----------------------------------------------------------------------
# Sink: streaming, round-trip, kill-and-resume
# ----------------------------------------------------------------------
class TestSinkResume:
    def test_sink_paths_survive_a_working_directory_change(self, tmp_path,
                                                           monkeypatch):
        # A daemon (the service) may chdir after opening its sinks; paths
        # must be pinned to absolute at creation time, not at append time.
        from repro.scenarios.sink import default_sink_dir

        home = tmp_path / "home"
        elsewhere = tmp_path / "elsewhere"
        home.mkdir()
        elsewhere.mkdir()
        monkeypatch.chdir(home)
        assert default_sink_dir().is_absolute()
        assert default_sink_dir() == home / "scenario-runs"
        sink = ResultSink(Path("runs") / "tiny.jsonl")
        assert sink.path == home / "runs" / "tiny.jsonl"
        monkeypatch.chdir(elsewhere)
        Planner().run(tiny_scenario(), SMOKE, sink=sink)
        assert (home / "runs" / "tiny.jsonl").exists()
        assert not (elsewhere / "runs").exists()

    def test_sink_record_round_trips(self, tmp_path):
        scenario = tiny_scenario()
        sink = ResultSink(tmp_path / "tiny.jsonl")
        run = Planner().run(scenario, SMOKE, sink=sink)
        loaded = sink.load()
        assert len(loaded) == 2
        for record in run.records:
            twin = loaded[record.key]
            assert isinstance(twin, SinkRecord)
            assert twin.result.cycles == record.result.cycles
            assert twin.meta == dict(record.meta)
            assert twin.spec["problem"] == "vecadd"

    def test_a_cache_served_sink_is_byte_identical_to_the_simulated_one(
            self, tmp_path):
        # Both write each line as the record's canonical JSON; the served
        # one takes its result text from the cache line the result came from.
        scenario = tiny_scenario(strategies=("ours", "lws=1"))
        cache = ResultCache(tmp_path / "cache")
        Planner(CampaignRunner(cache=cache)).run(
            scenario, SMOKE, sink=ResultSink(tmp_path / "simulated.jsonl"))
        served = ResultCache(tmp_path / "cache")
        run = Planner(CampaignRunner(cache=served)).run(
            scenario, SMOKE, sink=ResultSink(tmp_path / "served.jsonl"))
        assert served.misses == 0 and served.hits == run.stats.executed == 4
        assert ((tmp_path / "served.jsonl").read_bytes()
                == (tmp_path / "simulated.jsonl").read_bytes())

    def test_completed_run_resumes_without_executing(self, tmp_path):
        scenario = tiny_scenario()
        sink = ResultSink(tmp_path / "tiny.jsonl")
        first = Planner().run(scenario, SMOKE, sink=sink)
        second = Planner().run(scenario, SMOKE, sink=sink)
        assert second.stats.executed == 0
        assert second.stats.resumed == 2
        assert [r.result.cycles for r in second.records] == \
               [r.result.cycles for r in first.records]

    def test_kill_mid_grid_resumes_only_the_remaining_jobs(self, tmp_path):
        scenario = REGISTRY.get("scaling")
        path = tmp_path / "scaling.jsonl"
        full = Planner().run(scenario, SMOKE, sink=ResultSink(path))
        total = full.stats.unique

        # Simulate a hard kill after two complete records plus one partial
        # line (the classic half-written tail of a dead process).
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2])

        sink = ResultSink(path)
        resumed = Planner().run(scenario, SMOKE, sink=sink)
        assert resumed.stats.resumed == 2
        assert resumed.stats.executed == total - 2
        assert sink.skipped == 1            # exactly the half-written line
        assert [r.result.cycles for r in resumed.records] == \
               [r.result.cycles for r in full.records]
        # the journal now covers the full grid again; only the orphaned
        # partial line is unusable (appends never merge into it)
        reloaded = ResultSink(path)
        assert len(reloaded.load()) == total
        assert reloaded.skipped == 1

    def test_fresh_discards_the_sink(self, tmp_path):
        scenario = tiny_scenario()
        sink = ResultSink(tmp_path / "tiny.jsonl")
        Planner().run(scenario, SMOKE, sink=sink)
        run = Planner().run(scenario, SMOKE, sink=sink, fresh=True)
        assert run.stats.resumed == 0
        assert run.stats.executed == 2

    def test_load_reports_missing_jobs(self, tmp_path):
        scenario = tiny_scenario()
        sink = ResultSink(tmp_path / "tiny.jsonl")
        with pytest.raises(ScenarioError, match="0 of 2"):
            Planner().load(scenario, SMOKE, sink=sink)
        Planner().run(scenario, SMOKE, sink=sink)
        loaded = Planner().load(scenario, SMOKE, sink=sink)
        assert loaded.stats.executed == 0
        assert len(loaded.records) == 2
        assert loaded.report()

    @staticmethod
    def _sweep_and_reload(tmp_path):
        """A small Figure-2 sweep as run, and as read back from its sink."""
        scenario = sweep_scenario(["vecadd"], [ArchConfig.from_name("1c2w2t"),
                                               ArchConfig.from_name("2c2w4t")])
        context = ScenarioContext(scale="smoke")
        sink = ResultSink(tmp_path / "sweep.jsonl")
        run = Planner().run(scenario, context, sink=sink)
        loaded = Planner().load(scenario, context, sink=ResultSink(sink.path))
        return figure2_result_from_run(run), figure2_result_from_run(loaded)

    def test_figure2_sink_reload_preserves_statistics(self, tmp_path):
        result, loaded = self._sweep_and_reload(tmp_path)
        assert len(loaded.records) == len(result.records)
        assert loaded.problems() == result.problems()
        for baseline in ("lws=1", "lws=32"):
            original = result.stats("vecadd", baseline)
            restored = loaded.stats("vecadd", baseline)
            assert restored.average == pytest.approx(original.average)
            assert restored.worst == pytest.approx(original.worst)
            assert restored.count == original.count

    def test_figure2_reloaded_from_a_sink_supports_claims_and_reports(self, tmp_path):
        _, loaded = self._sweep_and_reload(tmp_path)
        assert "vecadd" in render_figure2_table(loaded)
        assert evaluate_claims(loaded).by_id("C4").holds


# ----------------------------------------------------------------------
# The paper scenarios reproduce the pre-refactor driver numbers
# ----------------------------------------------------------------------
def _hashes(jobs):
    return [job.spec.content_hash() for job in jobs]


class TestPortedScenarioEquality:
    """Each paper scenario submits the specs, in the order, and returns the
    records that the hand-written driver loops did before they were deleted."""

    @pytest.fixture(scope="class")
    def planner(self):
        return Planner()

    def test_figure1_numbers_match_the_driver(self, planner, update_golden):
        run = planner.run(REGISTRY.get("figure1"), SMOKE)
        records = [
            {"local_size": job.local_size, "cycles": job.cycles,
             "num_calls": job.num_calls, "num_workgroups": job.num_workgroups,
             "lane_utilization": job.lane_utilization}
            for job in run.results()]
        check_golden("figure1", {"hashes": _hashes(run.plan), "records": records},
                     update_golden)
        for record in records:
            # the driver's caption line appears verbatim in the report
            assert summarize_figure1_launch(**record) in run.report()

    def test_figure2_records_match_the_driver_bit_for_bit(self, planner, update_golden):
        run = planner.run(REGISTRY.get("figure2"), SMOKE)
        check_golden("figure2", {
            "hashes": _hashes(run.plan),
            "records": [sweep_row(r) for r in figure2_result_from_run(run).records],
        }, update_golden)

    def test_claims_match_the_driver(self, planner, update_golden):
        run = planner.run(REGISTRY.get("claims"), SMOKE)
        rendered = evaluate_claims(figure2_result_from_run(run)).render()
        check_golden("claims", rendered, update_golden)
        assert rendered == run.report()

    def test_ablation_matches_both_driver_studies(self, planner, update_golden):
        run = planner.run(REGISTRY.get("ablation"), ScenarioContext(scale="smoke"))
        cycles = {}
        for record in run.records:
            if record.meta["study"] == "overhead":
                cycles.setdefault(int(record.meta["overhead"]), {})[
                    record.meta["strategy"]] = record.result.cycles
        check_golden("ablation", {
            "overhead_hashes": _hashes(
                job for job in run.plan if job.meta["study"] == "overhead"),
            "overhead": [
                {"overhead": overhead, "naive": measured["naive-lws1"],
                 "ours": measured["hardware-aware"]}
                for overhead, measured in cycles.items()],
            "boundedness_hashes": _hashes(
                job for job in run.plan if job.meta["study"] == "boundedness"),
            "boundedness": [asdict(boundedness_record_from_job(r.result))
                            for r in run.records
                            if r.meta["study"] == "boundedness"],
        }, update_golden)


# ----------------------------------------------------------------------
# New scenarios: sanity of the cheap sweeps
# ----------------------------------------------------------------------
class TestNewScenarios:
    def test_scaling_reports_every_core_count(self):
        run = Planner().run(REGISTRY.get("scaling"), SMOKE)
        report = run.report()
        for cores in (1, 2, 4, 8, 16, 32):
            assert f"| {cores} " in report or f"| {cores}  " in report

    def test_scheduler_sweep_covers_both_policies(self):
        run = Planner().run(REGISTRY.get("scheduler-sweep"), SMOKE)
        schedulers = {r.meta["scheduler"] for r in run.records}
        assert schedulers == {"rr", "gto"}
        assert "rr/gto" in run.report()

    def test_engine_compare_is_bit_identical_and_uncached(self, tmp_path):
        from repro.campaign.cache import ResultCache

        cache = ResultCache(tmp_path)
        runner = CampaignRunner(cache=cache)
        run = Planner(runner=runner).run(REGISTRY.get("engine-compare"), SMOKE)
        assert {r.meta["engine"] for r in run.records} == \
            {"reference", "fast", "batch"}
        assert "bit-identical on every point" in run.report()
        # cacheable=False: the engine comparison must never read or write the
        # cache (a cache-served point would time nothing).
        assert cache.stats().entries == 0
        assert cache.stats().hits == 0

    def test_cache_sensitivity_tags_every_point(self):
        run = Planner().run(REGISTRY.get("cache-sensitivity"), SMOKE)
        for record in run.records:
            assert record.meta["l1_words"] in (1024, 4096, 16384)
            assert record.meta["l2_words"] in (8192, 32768, 131072)
        assert "L1 hit" in run.report()


# ----------------------------------------------------------------------
# Campaign cache integration
# ----------------------------------------------------------------------
class TestScenarioCacheIntegration:
    def test_second_run_is_fully_cache_served(self, tmp_path):
        from repro.campaign.cache import ResultCache

        scenario = tiny_scenario()
        runner = CampaignRunner(cache=ResultCache(tmp_path))
        planner = Planner(runner=runner)
        planner.run(scenario, SMOKE)
        second_cache = ResultCache(tmp_path)
        second = Planner(runner=CampaignRunner(cache=second_cache))
        run = second.run(scenario, SMOKE)
        assert run.stats.executed == 2      # "executed" counts campaign jobs...
        assert second_cache.hits == 2       # ...but every one was cache-served
        assert second_cache.misses == 0


class TestSinkStreaming:
    def test_load_skips_corrupt_and_stale_lines(self, tmp_path):
        scenario = tiny_scenario()
        sink = ResultSink(tmp_path / "tiny.jsonl")
        Planner().run(scenario, SMOKE, sink=sink)
        with sink.path.open("a") as journal:
            journal.write("{corrupt\n")
            journal.write(json.dumps({"schema": -1, "key": "stale"}) + "\n")
        assert len(sink.load()) == 2
        assert sink.skipped == 2

    def test_load_keeps_last_wins_over_the_stream(self, tmp_path):
        scenario = tiny_scenario()
        sink = ResultSink(tmp_path / "tiny.jsonl")
        Planner().run(scenario, SMOKE, sink=sink)
        # duplicate the first line at the tail: the re-appended record wins
        first_line = sink.path.read_text().splitlines()[0]
        with sink.path.open("a") as journal:
            journal.write(first_line + "\n")
        loaded = sink.load()
        assert len(loaded) == 2            # still one record per key


# ----------------------------------------------------------------------
# Group commit: cache-served records share one sink fsync
# ----------------------------------------------------------------------
WIDE = ("lws=1", "lws=2", "lws=4")          # 2 configs x 3 lws = 6 unique jobs


def cached_planner(directory):
    """A planner on a fresh :class:`ResultCache` instance over ``directory``."""
    return Planner(CampaignRunner(cache=ResultCache(directory)))


def sink_keys(path):
    return [json.loads(line)["key"] for line in path.read_text().splitlines()]


class TestSinkGroupCommit:
    def test_all_hit_run_shares_one_fsync(self, tmp_path, fsynced):
        scenario = tiny_scenario(strategies=WIDE)
        cached_planner(tmp_path / "cache").run(scenario, SMOKE)
        del fsynced[:]
        sink = ResultSink(tmp_path / "warm.jsonl")
        run = cached_planner(tmp_path / "cache").run(scenario, SMOKE, sink=sink)
        assert run.stats.unique == 6
        assert all(r.result.from_cache for r in run.records)
        assert fsynced == [sink.path.stat().st_ino]          # exactly one
        assert sink.appended == 6
        assert len(ResultSink(sink.path).load()) == 6

    def test_cold_run_commits_every_record_on_its_own(self, tmp_path, fsynced):
        sink = ResultSink(tmp_path / "cold.jsonl")
        run = Planner().run(tiny_scenario(strategies=WIDE), SMOKE, sink=sink)
        assert not any(r.result.from_cache for r in run.records)
        assert fsynced == [sink.path.stat().st_ino] * 6

    def test_mixed_run_commits_hits_once_then_each_miss(self, tmp_path, fsynced):
        # Two of the six points are already cached: the runner serves those
        # first, then simulates the other four.
        cached_planner(tmp_path / "cache").run(
            tiny_scenario(strategies=WIDE[:1]), SMOKE)
        del fsynced[:]
        sink = ResultSink(tmp_path / "mixed.jsonl")
        completions = []
        cached_planner(tmp_path / "cache").run(
            tiny_scenario(strategies=WIDE), SMOKE, sink=sink,
            progress=lambda done, total, record: completions.append(record))
        assert [r.result.from_cache for r in completions] == \
               [True, True, False, False, False, False]
        assert fsynced == [sink.path.stat().st_ino] * (1 + 4)
        # sink order is completion order: every hit before the first miss
        assert sink_keys(sink.path) == [r.key for r in completions]

    def test_hits_reach_the_sink_when_the_runner_raises(self, tmp_path):
        class Exploding:
            def execute(self, tasks):
                raise RuntimeError("fleet lost")

            def close(self):
                pass

        cached_planner(tmp_path / "cache").run(
            tiny_scenario(strategies=WIDE[:1]), SMOKE)
        sink = ResultSink(tmp_path / "raised.jsonl")
        runner = CampaignRunner(cache=ResultCache(tmp_path / "cache"),
                                executor=Exploding())
        with pytest.raises(RuntimeError, match="fleet lost"):
            Planner(runner).run(tiny_scenario(strategies=WIDE), SMOKE, sink=sink)
        loaded = ResultSink(sink.path).load()
        assert len(loaded) == 2
        assert {r.spec["local_size"] for r in loaded.values()} == {1}

    def test_batched_sink_is_byte_identical_to_per_record_appends(self, tmp_path):
        scenario = tiny_scenario(strategies=WIDE)
        cached_planner(tmp_path / "cache").run(scenario, SMOKE)
        batched = ResultSink(tmp_path / "batched.jsonl")
        completions = []
        cached_planner(tmp_path / "cache").run(
            scenario, SMOKE, sink=batched,
            progress=lambda done, total, record: completions.append(record))
        one_by_one = ResultSink(tmp_path / "one-by-one.jsonl")
        for record in completions:
            one_by_one.append(record)
        assert batched.path.read_bytes() == one_by_one.path.read_bytes()
        # ...which are the bytes the pre-batching sink wrote: one canonical
        # JSON object per line, in completion order.
        assert batched.path.read_text() == "".join(
            json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in completions)

    def test_reset_rearms_tail_repair(self, tmp_path):
        # Mirror of the cache's clear() test: after reset() another writer
        # may re-create the journal with a partial tail, which the next
        # append must terminate instead of merging into.
        sink = ResultSink(tmp_path / "tiny.jsonl")
        run = Planner().run(tiny_scenario(), SMOKE, sink=sink)
        sink.reset()
        sink.path.write_text('{"key": "partial"')                # no newline
        sink.append(run.records[0])
        reloaded = ResultSink(sink.path)
        assert list(reloaded.load()) == [run.records[0].key]
        assert reloaded.skipped == 1


class TestBatchCrashPoints:
    def test_every_truncation_of_a_batch_resumes_for_free(self, tmp_path,
                                                          monkeypatch):
        # One committed record, then a five-record batch; a kill is simulated
        # at *every* byte of the batch.  Truncation stands in for the crash,
        # so real fsyncs would only add wall time.
        monkeypatch.setattr(os, "fsync", lambda fd: None)
        scenario = tiny_scenario(strategies=WIDE)
        cached_planner(tmp_path / "cache").run(scenario, SMOKE)
        records = []
        cached_planner(tmp_path / "cache").run(
            scenario, SMOKE,
            progress=lambda done, total, record: records.append(record))
        keys = [r.key for r in records]
        full = ResultSink(tmp_path / "full.jsonl")
        full.append(records[0])
        before = full.path.stat().st_size
        full.append(records[1:])
        data = full.path.read_bytes()
        uninterrupted = {key: r.result for key, r in full.load().items()}
        assert list(uninterrupted) == keys

        cache = ResultCache(tmp_path / "cache")
        planner = Planner(CampaignRunner(cache=cache))
        plan = planner.plan(scenario, SMOKE)
        victim = tmp_path / "victim.jsonl"
        for size in range(before, len(data) + 1):
            victim.write_bytes(data[:size])
            sink = ResultSink(victim)
            run = planner.run(scenario, SMOKE, sink=sink, plan=plan)
            # What run()'s sink.load() found is a whole-record prefix of the
            # batch (a record missing only its newline is whole) with at most
            # the one torn line unusable; the rest was re-served, not run.
            # (Records loaded from the sink never carry from_cache.)
            whole = 1 + data[before:size + 1].count(b"\n")
            assert [r.key for r in run.records
                    if not r.result.from_cache] == keys[:whole]
            assert run.stats.resumed == whole
            assert sink.skipped <= 1
            # The re-served records landed on their own lines (tail repair):
            # still only the torn line is lost, and the fold is complete.
            reloaded = ResultSink(victim)
            folded = {key: r.result for key, r in reloaded.load().items()}
            assert folded == uninterrupted
            assert reloaded.skipped == sink.skipped
        assert cache.misses == 0                     # nothing was simulated
