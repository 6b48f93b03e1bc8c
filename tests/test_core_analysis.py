"""Tests for the static mapping analysis (repro.core.analysis)."""

import pytest

from repro.core.analysis import MappingAnalyzer
from repro.sim.config import ArchConfig


FIG1 = ArchConfig(cores=1, warps_per_core=2, threads_per_warp=4)     # hp = 8


def test_figure1_regimes_are_classified():
    analyzer = MappingAnalyzer(FIG1)
    assert analyzer.analyze(128, 1).regime == "multiple-calls"
    assert analyzer.analyze(128, 16).regime == "balanced"
    assert analyzer.analyze(128, 32).regime == "under-utilised"
    assert analyzer.analyze(128, 64).regime == "under-utilised"


def test_call_counts_match_the_dispatch_maths():
    analyzer = MappingAnalyzer(FIG1)
    assert analyzer.analyze(128, 1).num_calls == 16
    assert analyzer.analyze(128, 16).num_calls == 1
    assert analyzer.analyze(128, 32).num_calls == 1


def test_lane_utilization_matches_expectations():
    analyzer = MappingAnalyzer(FIG1)
    assert analyzer.analyze(128, 16).lane_utilization == pytest.approx(1.0)
    assert analyzer.analyze(128, 32).lane_utilization == pytest.approx(0.5)
    assert analyzer.analyze(128, 64).lane_utilization == pytest.approx(0.25)


def test_optimal_flag_and_suggestion():
    analyzer = MappingAnalyzer(FIG1)
    good = analyzer.analyze(128, 16)
    assert good.is_optimal
    bad = analyzer.analyze(128, 32)
    assert not bad.is_optimal
    assert bad.optimal_local_size == 16


def test_core_and_warp_utilization_on_a_multicore_machine():
    config = ArchConfig(cores=4, warps_per_core=4, threads_per_warp=8)   # hp = 128
    analyzer = MappingAnalyzer(config)
    # 8 workgroups spread over 4 cores -> 2 per core, every core busy
    analysis = analyzer.analyze(256, 32)
    assert analysis.num_workgroups == 8
    assert analysis.core_utilization == pytest.approx(1.0)

    # a single workgroup only touches one core
    single = analyzer.analyze(256, 256)
    assert single.core_utilization == pytest.approx(0.25)


def test_local_size_clamped_to_global_size():
    analyzer = MappingAnalyzer(FIG1)
    analysis = analyzer.analyze(8, 512)
    assert analysis.local_size == 8
    assert analysis.num_workgroups == 1


def test_invalid_inputs_rejected():
    analyzer = MappingAnalyzer(FIG1)
    with pytest.raises(ValueError):
        analyzer.analyze(0, 1)
    with pytest.raises(ValueError):
        analyzer.analyze(16, 0)

