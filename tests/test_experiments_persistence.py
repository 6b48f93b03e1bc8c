"""Tests for sweep-result persistence (Figure2Result.save_json / load_json)."""

import pytest

from repro.experiments.figure2 import Figure2Result, SweepRecord
from repro.sim.config import ArchConfig

from scenario_helpers import run_sweep


def _tiny_result() -> Figure2Result:
    configs = [ArchConfig.from_name("1c2w2t"), ArchConfig.from_name("2c2w4t")]
    return run_sweep(["vecadd"], configs)


def test_sweep_record_dict_round_trip():
    record = SweepRecord(problem="vecadd", category="math", config_name="1c2w2t",
                         hardware_parallelism=4, strategy="ours", local_size=16,
                         global_size=64, num_calls=1, cycles=1234, lane_utilization=1.0)
    restored = SweepRecord.from_dict(record.as_dict())
    assert restored == record


def test_save_and_load_json_preserves_statistics(tmp_path):
    result = _tiny_result()
    path = tmp_path / "sweep.json"
    result.save_json(path)
    assert path.exists()

    loaded = Figure2Result.load_json(path)
    assert len(loaded.records) == len(result.records)
    assert loaded.problems() == result.problems()
    for baseline in ("lws=1", "lws=32"):
        original = result.stats("vecadd", baseline)
        restored = loaded.stats("vecadd", baseline)
        assert restored.average == pytest.approx(original.average)
        assert restored.worst == pytest.approx(original.worst)
        assert restored.count == original.count


def test_loaded_result_supports_claims_and_reports(tmp_path):
    from repro.experiments.claims import evaluate_claims
    from repro.experiments.report import render_figure2_table

    result = _tiny_result()
    path = tmp_path / "sweep.json"
    result.save_json(path)
    loaded = Figure2Result.load_json(path)
    table = render_figure2_table(loaded)
    assert "vecadd" in table
    claims = evaluate_claims(loaded)
    assert claims.by_id("C4").holds


@pytest.mark.parametrize("content", ['"a string"', '{"problem": "vecadd"}',
                                     '[{"problem": "vecadd"}]', '[1, 2]', 'not json'])
def test_load_json_rejects_files_that_are_not_saved_sweeps(tmp_path, content):
    path = tmp_path / "bogus.json"
    path.write_text(content)
    with pytest.raises(ValueError, match="bogus.json is not a saved sweep"):
        Figure2Result.load_json(path)
