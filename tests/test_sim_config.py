"""Tests for ArchConfig (repro.sim.config)."""

import pytest

from repro.sim.config import ArchConfig, ConfigError, FIGURE1_CONFIG, LARGEST_CONFIG, SMALLEST_CONFIG


def test_hardware_parallelism_is_the_product_of_the_triple():
    config = ArchConfig(cores=4, warps_per_core=8, threads_per_warp=16)
    assert config.hardware_parallelism == 4 * 8 * 16


def test_name_uses_the_paper_scheme():
    assert ArchConfig(cores=1, warps_per_core=2, threads_per_warp=4).name == "1c2w4t"
    assert ArchConfig(cores=64, warps_per_core=32, threads_per_warp=32).name == "64c32w32t"


def test_from_name_round_trips():
    for name in ("1c2w2t", "4c8w8t", "64c32w32t", "12c4w16t"):
        assert ArchConfig.from_name(name).name == name


def test_from_name_accepts_overrides():
    config = ArchConfig.from_name("2c2w2t", dram_latency=500)
    assert config.dram_latency == 500
    assert config.cores == 2


def test_from_name_rejects_garbage():
    for bad in ("2c2w", "banana", "0c2w2t-ish", "c2w2t"):
        with pytest.raises(ConfigError):
            ArchConfig.from_name(bad)


def test_invalid_shapes_rejected():
    with pytest.raises(ConfigError):
        ArchConfig(cores=0)
    with pytest.raises(ConfigError):
        ArchConfig(warps_per_core=-1)
    with pytest.raises(ConfigError):
        ArchConfig(threads_per_warp=0)


def test_invalid_memory_geometry_rejected():
    with pytest.raises(ConfigError):
        ArchConfig(l1_size_words=100, l1_line_words=16, l1_ways=4)   # not a multiple
    with pytest.raises(ConfigError):
        ArchConfig(dram_lines_per_cycle=0)


@pytest.mark.parametrize("field, overrides", [
    ("l2_line_words", {"l2_line_words": 32}),          # the L2 is indexed by L1 line
    ("l2_line_words", {"l1_line_words": 32, "l2_size_words": 32768}),
    ("issue_width", {"issue_width": 2}),               # the core is single-issue
])
def test_values_the_model_would_ignore_are_rejected(field, overrides):
    with pytest.raises(ConfigError, match=field):
        ArchConfig(**overrides)


@pytest.mark.parametrize("field, value", [
    ("l1_ways", 0),                       # used to divide by zero
    ("l2_ways", 0),
    ("l1_size_words", 0),                 # used to fail only when a Gpu was built
    ("l2_size_words", -512),
    ("dram_latency", -1),
    ("dram_latency", 1.5),
    ("l1_hit_latency", -1),               # used to be accepted silently
    ("l2_hit_latency", -1),
    ("barrier_latency", -1),
    ("dram_lines_per_cycle", float("nan")),
    ("dram_lines_per_cycle", float("inf")),
    ("dram_lines_per_cycle", -2.0),
])
def test_bad_memory_and_latency_values_name_their_field(field, value):
    with pytest.raises(ConfigError, match=field):
        ArchConfig(**{field: value})


def test_equal_line_sizes_still_build():
    config = ArchConfig(l1_line_words=32, l2_line_words=32)
    assert config.l2_line_words == config.l1_line_words == 32


def test_negative_overheads_rejected():
    with pytest.raises(ConfigError):
        ArchConfig(kernel_launch_overhead=-1)


def test_describe_mentions_the_key_parameters():
    text = ArchConfig(cores=2, warps_per_core=4, threads_per_warp=8).describe()
    assert "2c4w8t" in text
    assert "hp = 64" in text
    assert "DRAM" in text


def test_paper_reference_configs():
    assert FIGURE1_CONFIG.name == "1c2w4t"
    assert SMALLEST_CONFIG.name == "1c2w2t"
    assert LARGEST_CONFIG.name == "64c32w32t"
    assert LARGEST_CONFIG.hardware_parallelism == 65536


def test_config_is_hashable_and_frozen():
    config = ArchConfig()
    with pytest.raises(Exception):
        config.cores = 2          # type: ignore[misc]
    assert isinstance(hash(config.name), int)
