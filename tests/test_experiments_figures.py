"""Tests for the Figure-1 / Figure-2 scenarios, claims, ablations and reports.

These run real (tiny) sweeps on the simulator through the planner, so they
use smoke-scale problems and the smallest configuration grids.
"""

from dataclasses import replace

import pytest

from repro.core.analysis import MappingAnalyzer
from repro.experiments.ablation import boundedness_record_from_job, overhead_records
from repro.experiments.claims import evaluate_claims
from repro.experiments.figure2 import SweepRecord
from repro.experiments.report import (
    render_figure2_table,
    render_speedup_summary,
    render_table,
)
from repro.scenarios import REGISTRY, Planner, ScenarioContext
from repro.sim.config import ArchConfig

from scenario_helpers import run_sweep, sweep_scenario


# ----------------------------------------------------------------------
# Figure 1
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def figure1():
    """A fresh run of the figure1 scenario, which traces every launch."""
    return Planner().run(REGISTRY.get("figure1"))


@pytest.fixture(scope="module")
def figure1_jobs(figure1):
    return {job.local_size: job for job in figure1.results()}


class TestFigure1:
    def test_all_requested_lws_values_are_traced(self, figure1_jobs):
        assert set(figure1_jobs) == {1, 16, 32, 64}
        assert {job.config_name for job in figure1_jobs.values()} == {"1c2w4t"}
        assert {job.global_size for job in figure1_jobs.values()} == {128}

    def test_lws16_is_the_fastest_as_in_the_paper(self, figure1_jobs):
        cycles = {lws: job.cycles for lws, job in figure1_jobs.items()}
        assert min(cycles, key=cycles.get) == 16
        # lws=1 pays 16 launches; larger lws leave ever more lanes idle
        assert cycles[64] > cycles[32] > cycles[16] < cycles[1]

    def test_call_counts_match_the_three_regimes(self, figure1_jobs):
        assert figure1_jobs[1].num_calls == 16
        assert figure1_jobs[16].num_calls == 1
        assert figure1_jobs[32].num_calls == 1
        assert figure1_jobs[64].num_calls == 1

    def test_under_utilised_mappings_report_reduced_lane_utilisation(self, figure1_jobs):
        assert figure1_jobs[16].lane_utilization == pytest.approx(1.0)
        assert figure1_jobs[32].lane_utilization == pytest.approx(0.5)
        assert figure1_jobs[64].lane_utilization == pytest.approx(0.25)

    def test_traces_contain_events_and_renderings(self, figure1, figure1_jobs):
        for job in figure1_jobs.values():
            assert len(job.events) > 0
        rendered = figure1.report()
        assert "Figure 1" in rendered
        assert rendered.count("lws=") >= 4
        assert rendered.count("core 0 warp 0") == 4      # one timeline per lws
        assert rendered.count("init") >= 4               # one waveform per lws
        assert "sink records" not in rendered

    def test_simulated_cycles_order_the_three_regimes(self):
        """Section 2's analysis, on a multi-core machine: the balanced lws is
        the fastest; more calls and idle lanes both cost simulated cycles."""
        config = ArchConfig.from_name("2c2w4t")          # hp = 16, Eq. 1 -> 4
        run = Planner().run(
            sweep_scenario(["vecadd"], [config],
                           strategies=("lws=1", "lws=2", "ours", "lws=16", "lws=64")),
            ScenarioContext(scale="smoke"))
        analyzer = MappingAnalyzer(config)
        jobs = {job.local_size: job for job in run.results()}
        regimes = {lws: analyzer.analyze(job.global_size, lws).regime
                   for lws, job in jobs.items()}
        assert regimes == {1: "multiple-calls", 2: "multiple-calls", 4: "balanced",
                           16: "under-utilised", 64: "under-utilised"}
        assert jobs[4].num_calls == 1
        assert min(jobs, key=lambda lws: jobs[lws].cycles) == 4
        assert jobs[1].cycles > jobs[4].cycles < jobs[64].cycles


# ----------------------------------------------------------------------
# Figure 2 (tiny sweep)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def figure2():
    configs = [ArchConfig.from_name("1c2w2t"), ArchConfig.from_name("2c4w4t"),
               ArchConfig.from_name("8c8w8t")]
    return run_sweep(["vecadd", "sgemm"], configs)


class TestFigure2:
    def test_every_problem_config_strategy_is_recorded(self, figure2):
        assert len(figure2.records) == 2 * 3 * 3
        assert set(figure2.problems()) == {"vecadd", "sgemm"}
        record = figure2.records[0]
        assert isinstance(record, SweepRecord)
        assert record.cycles > 0
        assert record.strategy in ("lws=1", "lws=32", "ours")

    def test_ratios_and_stats_are_computed_per_baseline(self, figure2):
        for baseline in ("lws=1", "lws=32"):
            ratios = figure2.ratios("vecadd", baseline)
            assert len(ratios) == 3
            stats = figure2.stats("vecadd", baseline)
            assert stats.count == 3
            assert stats.worst <= stats.average <= stats.best

    def test_hardware_aware_mapping_is_never_dramatically_worse(self, figure2):
        for problem in figure2.problems():
            for baseline in ("lws=1", "lws=32"):
                assert figure2.stats(problem, baseline).worst >= 0.8

    def test_average_speedup_and_worst_case_queries(self, figure2):
        assert figure2.average_speedup("lws=1", category="math") >= 1.0
        assert figure2.worst_case_slowdown("lws=32") >= 1.0
        with pytest.raises(ValueError):
            figure2.average_speedup("lws=1", category="nonexistent")

    def test_cycles_lookup_and_missing_records(self, figure2):
        assert figure2.cycles("vecadd", "1c2w2t", "ours") > 0
        with pytest.raises(KeyError):
            figure2.cycles("vecadd", "1c2w2t", "lws=99")
        with pytest.raises(KeyError):
            figure2.ratios("vecadd", "lws=99")


# ----------------------------------------------------------------------
# claims, ablations, report rendering
# ----------------------------------------------------------------------
class TestClaimsAndReports:
    def test_claims_are_evaluated_with_measured_values(self, figure2):
        claims = evaluate_claims(figure2)
        assert {c.claim_id for c in claims.outcomes} == {"C1", "C2", "C3", "C4"}
        c1 = claims.by_id("C1")
        assert c1.paper_value == pytest.approx(1.3)
        assert c1.measured_value > 0
        assert claims.by_id("C4").holds        # Eq. 1 degeneracy is exact by construction
        assert "C1" in claims.render()
        with pytest.raises(KeyError):
            claims.by_id("C9")

    def test_figure2_table_rendering(self, figure2):
        table = render_figure2_table(figure2)
        assert "vecadd" in table and "sgemm" in table
        assert "lws=1/ours avg" in table
        assert table.count("|") > 20

    def test_speedup_summary_and_markdown_report(self, figure2):
        summary = render_speedup_summary(figure2)
        assert "speed-up over lws=1" in summary
        table = render_figure2_table(figure2).splitlines()
        assert table and all(line.startswith("|") for line in table)
        assert any("vecadd" in line for line in table)

    def test_render_table_alignment(self):
        table = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("|") and line.endswith("|") for line in lines)

    def test_overhead_ablation_is_monotone(self):
        base = ArchConfig.from_name("2c2w4t")
        overheads = (0, 64, 512)
        run = Planner().run(
            sweep_scenario(["vecadd"],
                           [replace(base, kernel_launch_overhead=overhead)
                            for overhead in overheads],
                           strategies=("naive-lws1", "hardware-aware")),
            ScenarioContext(scale="smoke"))
        cycles = [job.cycles for job in run.results()]
        records = overhead_records(overheads, list(zip(cycles[::2], cycles[1::2])))
        assert len(records) == 3
        ratios = [r.ratio for r in records]
        # more launch overhead -> the naive lws=1 mapping falls further behind
        assert ratios[0] <= ratios[1] <= ratios[2]
        assert records[0].naive_cycles > 0

    def test_boundedness_classifies_each_problem(self):
        run = Planner().run(
            sweep_scenario(["vecadd", "sgemm"], [ArchConfig.from_name("1c2w4t")],
                           strategies=("runtime",)),
            ScenarioContext(scale="smoke"))
        records = [boundedness_record_from_job(job) for job in run.results()]
        by_name = {r.problem: r for r in records}
        assert set(by_name) == {"vecadd", "sgemm"}
        for record in records:
            assert record.boundedness in ("memory-bound", "compute-bound")
            assert 0.0 <= record.memory_intensity <= 1.0
        # vecadd does almost no arithmetic per load; sgemm amortises loads over FMAs
        assert by_name["vecadd"].memory_intensity > by_name["sgemm"].memory_intensity
