"""Tests for the campaign engine (repro.campaign).

Covers the acceptance properties of the subsystem: content hashes that are
stable across process restarts, cache hit/miss accounting with
version-bump invalidation, per-job failure isolation, deterministic result
ordering, and bit-identical serial vs. parallel (and cold vs. cache-served)
experiment results.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import repro
from repro.campaign import (
    CACHE_SCHEMA_VERSION,
    Campaign,
    CampaignError,
    CampaignRunner,
    JobFailure,
    JobResult,
    JobSpec,
    ResultCache,
    config_from_dict,
    config_to_dict,
    execute_job,
)
from repro.campaign.cache import CACHE_DIR_ENV, default_cache_dir, read_cache_line
from repro.campaign.journal import Journal
from repro.isa.latencies import FunctionalUnit, OpTiming
from repro.isa.opcodes import Opcode
from repro.sim.config import ArchConfig
from repro.workloads.problems import UnknownProblemError, make_problem

from scenario_helpers import run_sweep, sweep_row

CONFIG = ArchConfig.from_name("2c2w4t")


def spec(**overrides) -> JobSpec:
    defaults = dict(problem="vecadd", config=CONFIG, scale="smoke", seed=0)
    defaults.update(overrides)
    return JobSpec(**defaults)


def _explode(job_spec, engine=None):
    """A stand-in for execute_job that raises inside a fleet worker."""
    raise RuntimeError("synthetic pool breakage")


# ----------------------------------------------------------------------
# specs and hashing
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_hash_is_stable_across_process_restarts(self):
        code = (
            "from repro.campaign import JobSpec\n"
            "from repro.sim.config import ArchConfig\n"
            "s = JobSpec(problem='vecadd', config=ArchConfig.from_name('2c2w4t'),\n"
            "            scale='smoke', seed=0)\n"
            "print(s.content_hash())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONHASHSEED"] = "12345"   # builtin-hash randomisation must not matter
        fresh = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert fresh.returncode == 0, fresh.stderr
        assert fresh.stdout.strip() == spec().content_hash()

    def test_hash_ignores_presentation_fields(self):
        base = spec()
        assert spec(label="other").content_hash() == base.content_hash()
        assert spec(collect_trace=True).content_hash() == base.content_hash()

    def test_hash_distinguishes_simulation_inputs(self):
        base = spec()
        assert spec(seed=1).content_hash() != base.content_hash()
        assert spec(local_size=8).content_hash() != base.content_hash()
        assert spec(problem="relu").content_hash() != base.content_hash()
        assert spec(size=96).content_hash() != base.content_hash()
        assert spec(call_simulation_limit=3).content_hash() != base.content_hash()
        bigger = ArchConfig.from_name("4c2w4t")
        assert spec(config=bigger).content_hash() != base.content_hash()
        slower = replace(CONFIG, kernel_launch_overhead=512)
        assert spec(config=slower).content_hash() != base.content_hash()

    def test_hash_depends_on_simulator_version(self, monkeypatch):
        before = spec().content_hash()
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert spec().content_hash() != before

    def test_spec_round_trips_through_dict(self):
        original = spec(local_size=4, call_simulation_limit=3, label="x",
                        size=64, collect_trace=True)
        restored = JobSpec.from_dict(json.loads(json.dumps(original.to_dict())))
        assert restored == original
        assert restored.content_hash() == original.content_hash()

    def test_config_round_trip_includes_timing_overrides(self):
        config = replace(
            CONFIG, warp_scheduler="gto", dram_latency=250,
            timing_overrides={Opcode.FADD: OpTiming(FunctionalUnit.FPU, 7, 2)})
        restored = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert restored == config

    def test_campaign_counts_distinct_points(self):
        campaign = Campaign("dup")
        campaign.add(spec(local_size=1))
        campaign.add(spec(local_size=1, label="again"))
        campaign.add(spec(local_size=8))
        assert len(campaign) == 3
        assert len(campaign.unique_hashes()) == 2
        assert "3 job(s), 2 distinct" in campaign.summary()


# ----------------------------------------------------------------------
# the persistent cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_miss_then_hit_accounting(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = spec(local_size=4)
        assert cache.get_many([job]) == [None]
        result = execute_job(job)
        cache.put(job, result)
        [served] = cache.get_many([job])
        assert served is not None
        assert served.cycles == result.cycles
        assert served.from_cache and not result.from_cache
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_persists_across_instances(self, tmp_path):
        job = spec(local_size=4)
        first = ResultCache(tmp_path)
        first.put(job, execute_job(job))
        second = ResultCache(tmp_path)
        assert len(second) == 1
        assert job in second
        assert (second.get_many([job])[0].cycles
                == first.get_many([job])[0].cycles)

    def test_version_bump_invalidates_entries(self, tmp_path, monkeypatch):
        job = spec(local_size=4)
        ResultCache(tmp_path).put(job, execute_job(job))
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        assert cache.stats().stale_entries == 1
        assert cache.get_many([job]) == [None]   # the hash moved with the version too

    def test_corrupt_journal_lines_are_skipped(self, tmp_path):
        job = spec(local_size=4)
        cache = ResultCache(tmp_path)
        cache.put(job, execute_job(job))
        with cache.journal_path.open("a") as journal:
            journal.write("{not json\n")
        reloaded = ResultCache(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.stats().stale_entries == 1

    def test_superseded_duplicate_lines_are_compacted_on_load(self, tmp_path):
        job = spec(local_size=4)
        cache = ResultCache(tmp_path)
        result = execute_job(job)
        cache.put(job, result)
        # Simulate a concurrent campaign appending the same hash again.
        line = cache.journal_path.read_text()
        with cache.journal_path.open("a") as journal:
            journal.write(line)
        assert len(cache.journal_path.read_text().splitlines()) == 2

        reloaded = ResultCache(tmp_path)
        assert len(reloaded) == 1
        stats = reloaded.stats()
        assert stats.compacted_lines == 1
        assert stats.journal_lines == 1
        assert "compacted 1 superseded/corrupt line(s)" in stats.render()
        # the journal itself shrank back to one line per hash
        assert len(cache.journal_path.read_text().splitlines()) == 1
        assert reloaded.get_many([job])[0].cycles == result.cycles

    def test_compaction_keeps_the_last_record_per_hash(self, tmp_path):
        job = spec(local_size=4)
        cache = ResultCache(tmp_path)
        cache.put(job, execute_job(job))
        record = json.loads(cache.journal_path.read_text())
        record["result"]["cycles"] = 123_456          # a newer, different write
        with cache.journal_path.open("a") as journal:
            journal.write(json.dumps(record, sort_keys=True) + "\n")

        reloaded = ResultCache(tmp_path)
        assert reloaded.get_many([job])[0].cycles == 123_456
        assert reloaded.stats().compacted_lines == 1

    def test_stale_duplicate_hash_cannot_shadow_a_usable_record(self, tmp_path):
        # A tampered/hand-merged journal can hold the same hash under two
        # simulator versions; last-wins dedup is per (hash, version), so the
        # stale line neither shadows the usable record nor gets it compacted
        # away.
        job = spec(local_size=4)
        cache = ResultCache(tmp_path)
        result = execute_job(job)
        cache.put(job, result)
        record = json.loads(cache.journal_path.read_text())
        record["simulator"] = "999.0.0"       # same hash, other version
        with cache.journal_path.open("a") as journal:
            journal.write(json.dumps(record, sort_keys=True) + "\n")

        reloaded = ResultCache(tmp_path)
        assert reloaded.get_many([job])[0].cycles == result.cycles   # still served
        assert reloaded.stats().stale_entries == 1
        assert reloaded.stats().compacted_lines == 0       # nothing superseded
        assert len(cache.journal_path.read_text().splitlines()) == 2

    def test_status_reports_journal_size_metrics(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(spec(local_size=4), execute_job(spec(local_size=4)))
        stats = cache.stats()
        assert stats.journal_lines == 1
        assert stats.size_bytes > 0
        assert stats.bytes_per_entry == stats.size_bytes
        rendered = stats.render()
        assert "journal lines" in rendered
        assert "B/entry" in rendered

    def test_clear_removes_the_journal(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = spec(local_size=4)
        cache.put(job, execute_job(job))
        assert cache.clear() == 1
        assert not cache.journal_path.exists()
        assert ResultCache(tmp_path).get_many([job]) == [None]

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        assert ResultCache().directory == tmp_path / "elsewhere"

    def test_clear_rearms_tail_repair(self, tmp_path):
        # clear() must forget that the (now deleted) journal's tail was
        # checked: a journal recreated afterwards with a partial tail -- a
        # killed writer from another process -- still needs repairing before
        # this instance appends to it.
        cache = ResultCache(tmp_path)
        first, second = spec(local_size=2), spec(local_size=4)
        cache.put(first, execute_job(first))
        cache.clear()
        cache.journal_path.write_text('{"hash": "partial"')   # no newline
        cache.put(second, execute_job(second))
        reloaded = ResultCache(tmp_path)
        assert reloaded.get_many([second]) != [None]

    def test_clear_sweeps_orphaned_compaction_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = spec(local_size=4)
        cache.put(job, execute_job(job))
        orphan = tmp_path / f"{cache.journal_path.name}.12345.tmp"
        orphan.write_text('{"hash": "stale"}\n')
        cache.clear()
        assert not orphan.exists()

    def test_a_miss_reads_what_another_instance_appended(self, tmp_path):
        # A long-lived cache (the service's) and a second process on the
        # same directory: the first must serve the second's points, not
        # simulate and journal them again.
        a = ResultCache(tmp_path)
        b = ResultCache(tmp_path)
        campaign = Campaign("shared")
        for lws in (2, 4):
            job = spec(local_size=lws)
            campaign.add(job)
            b.put(job, execute_job(job))
        outcome = CampaignRunner(cache=a).run(campaign)
        assert outcome.stats.cache_hits == 2
        assert outcome.stats.executed == 0
        assert len(a.journal_path.read_text().splitlines()) == 2
        assert a.stats().journal_lines == 2

    def test_a_miss_refolds_a_journal_compacted_under_it(self, tmp_path):
        first, second = spec(local_size=2), spec(local_size=4)
        writer = ResultCache(tmp_path)
        writer.put(first, execute_job(first))
        line = writer.journal_path.read_text()
        with writer.journal_path.open("a") as journal:
            journal.write("{}\n")                   # refused, kept: no rewrite
        a = ResultCache(tmp_path)
        # Another process duplicates the line and a third load compacts
        # the journal into a new file; then a fourth appends ``second``.
        # Read on from ``a``'s old offset, the new file starts mid-line.
        with writer.journal_path.open("a") as journal:
            journal.write(line)
        assert ResultCache(tmp_path).stats().compacted_lines == 2
        ResultCache(tmp_path).put(second, execute_job(second))
        assert None not in a.get_many([first, second])
        assert a.stats().journal_lines == 2

    def test_a_miss_after_a_put_reads_no_journal_line(self, tmp_path,
                                                      monkeypatch):
        # put() folds past its own line: the next miss finds nothing unread.
        import repro.campaign.journal as journal_module

        first, second = spec(local_size=2), spec(local_size=4)
        ResultCache(tmp_path).put(first, execute_job(first))   # loaded below
        cache = ResultCache(tmp_path)
        cache.put(second, execute_job(second))
        parsed = []
        original = journal_module.parse_line
        monkeypatch.setattr(journal_module, "parse_line",
                            lambda text: parsed.append(text) or original(text))
        assert cache.get_many([spec(local_size=8)]) == [None]
        assert parsed == []
        assert cache.stats().journal_lines == 2

    def test_a_put_leaves_another_writers_line_unread(self, tmp_path):
        # Another instance appended between this one's fold and its put:
        # the put must not fold past that line, so a miss still reads it.
        first, second = spec(local_size=2), spec(local_size=4)
        a = ResultCache(tmp_path)
        ResultCache(tmp_path).put(first, execute_job(first))
        a.put(second, execute_job(second))
        served = a.get_many([first, spec(local_size=8)])
        assert served[0] is not None and served[0].from_cache
        assert served[1] is None
        assert a.stats().journal_lines == 2

# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
class TestCampaignRunner:
    def grid(self):
        campaign = Campaign("grid")
        for lws in (1, 2, 4, 8):
            campaign.add(spec(local_size=lws))
        return campaign

    def test_rejects_nonpositive_worker_counts(self):
        with pytest.raises(ValueError):
            CampaignRunner(workers=0)

    def test_results_keep_submission_order(self):
        outcome = CampaignRunner().run(self.grid())
        assert [r.local_size for r in outcome.results] == [1, 2, 4, 8]
        assert outcome.ok
        assert outcome.stats.executed == 4

    @staticmethod
    def measured(outcome):
        """Result dictionaries minus wall-clock noise (elapsed_seconds)."""
        rows = [r.to_dict() for r in outcome.results]
        for row in rows:
            row.pop("elapsed_seconds")
        return rows

    def test_serial_and_parallel_results_are_identical(self):
        serial = CampaignRunner(workers=1).run(self.grid())
        parallel = CampaignRunner(workers=4).run(self.grid())
        assert self.measured(serial) == self.measured(parallel)

    def test_duplicate_points_are_simulated_once(self):
        campaign = Campaign("dups")
        for _ in range(3):
            campaign.add(spec(local_size=4))
        outcome = CampaignRunner().run(campaign)
        assert outcome.stats.executed == 1
        assert outcome.stats.deduplicated == 2
        assert len({r.cycles for r in outcome.results}) == 1

    def test_one_bad_job_does_not_kill_the_campaign(self):
        campaign = self.grid()
        campaign.add(spec(problem="no_such_kernel"))
        for workers in (1, 2):
            outcome = CampaignRunner(workers=workers).run(campaign)
            assert outcome.stats.failed == 1
            failure = outcome.results[-1]
            assert isinstance(failure, JobFailure)
            assert "no_such_kernel" in failure.error
            assert failure.traceback                     # captured for debugging
            assert all(isinstance(r, JobResult) for r in outcome.results[:-1])
            with pytest.raises(CampaignError, match="no_such_kernel"):
                outcome.job_results()

    def test_progress_fires_once_per_job(self, tmp_path):
        cache = ResultCache(tmp_path)
        campaign = self.grid()
        seen = []
        CampaignRunner(cache=cache).run(
            campaign, progress=lambda i, n, s, o: seen.append((i, n, o.from_cache)))
        assert sorted(i for i, _, _ in seen) == [0, 1, 2, 3]
        assert all(n == 4 for _, n, _ in seen)
        assert not any(hit for _, _, hit in seen)
        seen.clear()
        CampaignRunner(cache=cache).run(
            campaign, progress=lambda i, n, s, o: seen.append((i, n, o.from_cache)))
        assert all(hit for _, _, hit in seen)

    def test_warm_cache_serves_everything(self, tmp_path):
        campaign = self.grid()
        cold = CampaignRunner(cache=ResultCache(tmp_path)).run(campaign)
        warm = CampaignRunner(cache=ResultCache(tmp_path)).run(campaign)
        assert cold.stats.executed == 4
        assert warm.stats.executed == 0                  # zero simulator invocations
        assert warm.stats.cache_hits == 4
        assert [r.cycles for r in warm.results] == [r.cycles for r in cold.results]

    def test_pool_breakage_failures_carry_a_traceback(self, monkeypatch):
        # When a job breaks its local worker instead of failing inside
        # execute_job, the synthesized JobFailure must still carry a
        # formatted traceback, like an in-job failure would -- it is the only
        # debugging artifact -- plus host/last-heartbeat context locating the
        # breakage.
        import repro.campaign.dist.worker as worker_module

        monkeypatch.setattr(worker_module, "execute_job", _explode)
        campaign = Campaign("broken", specs=[spec(local_size=2),
                                             spec(local_size=4)])
        with CampaignRunner(workers=2) as runner:
            outcome = runner.run(campaign)
        assert outcome.stats.failed == 2
        for failure in outcome.results:
            assert isinstance(failure, JobFailure)
            assert "synthetic pool breakage" in failure.error
            assert "RuntimeError" in failure.traceback
            assert "Traceback" in failure.traceback
            assert failure.host, "pool breakage must name the host"
            assert failure.last_heartbeat is not None

    def test_traced_jobs_bypass_cache_reads_but_seed_summaries(self, tmp_path):
        cache = ResultCache(tmp_path)
        traced = spec(local_size=4, collect_trace=True)
        first = CampaignRunner(cache=cache).run([traced])
        assert first.results[0].events                   # events survive the runner
        # the summary was written, so the untraced twin is cache-served ...
        warm = CampaignRunner(cache=cache).run([spec(local_size=4)])
        assert warm.stats.cache_hits == 1
        # ... but a traced resubmission must simulate again (events aren't stored)
        again = CampaignRunner(cache=cache).run([traced])
        assert again.stats.executed == 1
        assert again.results[0].events


# ----------------------------------------------------------------------
# experiments through the campaign engine
# ----------------------------------------------------------------------
class TestExperimentsThroughCampaign:
    CONFIGS = [ArchConfig.from_name("1c2w2t"), ArchConfig.from_name("2c4w4t")]

    def test_figure2_second_run_is_fully_cache_served(self, tmp_path):
        cold_runner = CampaignRunner(cache=ResultCache(tmp_path))
        cold = run_sweep(["vecadd"], self.CONFIGS, runner=cold_runner)
        warm_runner = CampaignRunner(cache=ResultCache(tmp_path))
        warm = run_sweep(["vecadd"], self.CONFIGS, runner=warm_runner)
        assert warm_runner.cache.misses == 0             # every point served
        assert [sweep_row(r) for r in warm.records] == [sweep_row(r) for r in cold.records]

    def test_figure2_parallel_matches_serial(self):
        serial = run_sweep(["vecadd", "relu"], self.CONFIGS,
                           runner=CampaignRunner(workers=1))
        parallel = run_sweep(["vecadd", "relu"], self.CONFIGS,
                             runner=CampaignRunner(workers=4))
        assert [sweep_row(r) for r in serial.records] \
            == [sweep_row(r) for r in parallel.records]

    def test_figure2_seed_changes_the_grid_points(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = CampaignRunner(cache=cache)
        run_sweep(["vecadd"], self.CONFIGS[:1], seed=0, runner=runner)
        run_sweep(["vecadd"], self.CONFIGS[:1], seed=7, runner=runner)
        assert cache.hits == 0                           # different seed, no reuse


# ----------------------------------------------------------------------
# problem size overrides (used by figure1 job specs)
# ----------------------------------------------------------------------
class TestSizeOverride:
    def test_sizeable_problems_honour_the_override(self):
        problem = make_problem("vecadd", scale="smoke", seed=11, size=128)
        assert problem.global_size == 128
        assert len(problem.arguments["a"]) == 128

    def test_structured_problems_reject_the_override(self):
        with pytest.raises(UnknownProblemError, match="size override"):
            make_problem("sgemm", scale="smoke", size=128)
        with pytest.raises(UnknownProblemError, match="positive"):
            make_problem("vecadd", scale="smoke", size=0)


# ----------------------------------------------------------------------
# streaming journal access (warehouse ingest rides on these)
# ----------------------------------------------------------------------
def cache_journal(cache):
    return Journal(cache.journal_path, read_cache_line)


class TestStreamingJournal:
    def test_read_yields_records_with_resume_offsets(self, tmp_path):
        cache = ResultCache(tmp_path)
        for lws in (1, 2, 4):
            job = spec(local_size=lws)
            cache.put(job, execute_job(job))

        entries = list(cache_journal(cache).read())
        assert len(entries) == 3
        hashes = [read[0][0] for _, read, _ in entries]
        assert len(set(hashes)) == 3
        assert [record["hash"] for record, _, _ in entries] == hashes
        # offsets are line-end byte positions: resuming from any of them
        # yields exactly the remaining records
        first_offset = entries[0][2]
        rest = list(cache_journal(cache).read(start=first_offset))
        assert [read[0][0] for _, read, _ in rest] == hashes[1:]
        assert entries[-1][2] == cache.journal_path.stat().st_size

    def test_terminated_blank_lines_advance_the_offset(self, tmp_path):
        # A blank (but newline-terminated) line carries no record, yet the
        # iteration must still report the offset past it: consumers that
        # persist the consumed offset (warehouse sync) would otherwise stall
        # before trailing blank lines and re-read them on every pass.
        cache = ResultCache(tmp_path)
        job = spec(local_size=4)
        cache.put(job, execute_job(job))
        with cache.journal_path.open("a") as journal:
            journal.write("\n\n")
        size = cache.journal_path.stat().st_size

        entries = list(cache_journal(cache).read())
        assert [read is None for _, read, _ in entries] == [False, True, True]
        assert entries[-1][2] == size
        # complete_only (the warehouse ingest mode) consumes them too
        guarded = list(cache_journal(cache).read(complete_only=True))
        assert guarded[-1][2] == size

    def test_complete_only_hides_an_unterminated_tail(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = spec(local_size=4)
        cache.put(job, execute_job(job))
        whole = cache.journal_path.stat().st_size
        with cache.journal_path.open("a") as journal:
            journal.write('{"hash": "partial"')            # no newline

        guarded = list(cache_journal(cache).read(complete_only=True))
        assert len(guarded) == 1
        assert guarded[-1][2] == whole                     # stops at the tail

        # the loaders' mode still reads the tail like any other line
        eager = list(cache_journal(cache).read())
        assert len(eager) == 2
        assert eager[-1][:2] == (None, None)               # corrupt -> None
