"""Tests for the experiment sweeps and violin statistics."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.configs import (
    PAPER_SWEEP_SIZE,
    bench_sweep,
    grid_sweep,
    paper_sweep,
    smoke_sweep,
    sweep_by_name,
)
from repro.experiments.stats import RatioStats, ratio_stats


# ----------------------------------------------------------------------
# configuration sweeps
# ----------------------------------------------------------------------
class TestSweeps:
    def test_paper_sweep_has_450_unique_configurations(self):
        configs = paper_sweep()
        assert len(configs) == PAPER_SWEEP_SIZE == 450
        assert len({c.name for c in configs}) == 450

    def test_paper_sweep_spans_the_published_corners(self):
        names = {c.name for c in paper_sweep()}
        assert "1c2w2t" in names
        assert "64c32w32t" in names

    def test_reduced_sweeps_preserve_the_corners(self):
        for sweep in (bench_sweep(), smoke_sweep()):
            names = {c.name for c in sweep}
            assert "1c2w2t" in names
            assert "64c32w32t" in names or len(sweep) <= 8
        assert len(bench_sweep()) == 36
        assert len(smoke_sweep()) == 8

    def test_sweep_by_name(self):
        assert len(sweep_by_name("paper")) == 450
        assert len(sweep_by_name("bench")) == 36
        assert len(sweep_by_name("smoke")) == 8
        with pytest.raises(KeyError):
            sweep_by_name("enormous")

    def test_overrides_propagate_to_every_configuration(self):
        configs = smoke_sweep(dram_latency=321)
        assert all(c.dram_latency == 321 for c in configs)

    def test_grid_sweep_is_a_cartesian_product(self):
        configs = grid_sweep([1, 2], [2], [2, 4])
        assert [c.name for c in configs] == ["1c2w2t", "1c2w4t", "2c2w2t", "2c2w4t"]


# ----------------------------------------------------------------------
# violin statistics
# ----------------------------------------------------------------------
class TestRatioStats:
    def test_basic_statistics(self):
        stats = ratio_stats([2.0, 1.0, 0.5, 4.0])
        assert stats.count == 4
        assert stats.average == pytest.approx((2 + 1 + 0.5 + 4) / 4)
        assert stats.worst == 0.5
        assert stats.best == 4.0
        assert stats.median == pytest.approx(1.5)
        assert stats.fraction_below_one == pytest.approx(0.25)
        assert stats.percent_below_one == pytest.approx(25.0)
        assert stats.geometric_mean == pytest.approx((2 * 1 * 0.5 * 4) ** 0.25)

    def test_single_value(self):
        stats = ratio_stats([1.3])
        assert stats.average == stats.worst == stats.best == stats.median == 1.3
        assert stats.quartile_low == stats.quartile_high == 1.3

    def test_rejects_empty_and_non_positive(self):
        with pytest.raises(ValueError):
            ratio_stats([])
        with pytest.raises(ValueError):
            ratio_stats([1.0, 0.0])
        with pytest.raises(ValueError):
            ratio_stats([-1.0])

    def test_as_dict_round_trip_fields(self):
        data = ratio_stats([2.0, 3.0]).as_dict()
        assert data["count"] == 2
        assert set(data) >= {"average", "worst", "best", "median", "percent_below_one"}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=50))
    def test_invariants_hold_for_arbitrary_ratio_lists(self, ratios):
        stats = ratio_stats(ratios)
        eps = 1e-9 * max(ratios)
        assert stats.worst <= stats.median <= stats.best
        assert stats.worst - eps <= stats.average <= stats.best + eps
        assert stats.quartile_low <= stats.median <= stats.quartile_high
        assert 0.0 <= stats.fraction_below_one <= 1.0
        assert stats.geometric_mean <= stats.average + eps + 1e-9   # AM-GM
        assert stats.count == len(ratios)
