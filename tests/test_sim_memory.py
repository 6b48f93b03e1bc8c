"""Tests for the memory subsystem: main memory, caches, DRAM, coalescing, hierarchy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.config import ArchConfig
from repro.sim.memory.cache import Cache
from repro.sim.memory.coalescer import coalesce
from repro.sim.memory.dram import DramModel
from repro.sim.memory.hierarchy import MemoryHierarchy
from repro.sim.memory.mainmem import MainMemory, MemoryError_


# ----------------------------------------------------------------------
# MainMemory
# ----------------------------------------------------------------------
class TestMainMemory:
    def test_read_write_roundtrip(self):
        memory = MainMemory(128)
        memory.write(5, 3.25)
        assert memory.read(5) == 3.25
        assert memory.read(6) == 0.0

    def test_block_roundtrip_and_fill(self):
        memory = MainMemory(64)
        memory.write_block(8, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(memory.read_block(8, 3), [1.0, 2.0, 3.0])
        memory.fill(8, 3, 9.0)
        np.testing.assert_array_equal(memory.read_block(8, 3), [9.0, 9.0, 9.0])

    def test_out_of_bounds_raises(self):
        memory = MainMemory(16)
        with pytest.raises(MemoryError_):
            memory.read(16)
        with pytest.raises(MemoryError_):
            memory.write(-1, 0.0)
        with pytest.raises(MemoryError_):
            memory.read_block(10, 10)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            MainMemory(0)

    def test_view_is_read_only(self):
        memory = MainMemory(8)
        view = memory.view()
        with pytest.raises(ValueError):
            view[0] = 1.0

    def test_integers_survive_round_trips_exactly(self):
        memory = MainMemory(8)
        memory.write(0, 123456789.0)
        assert int(memory.read(0)) == 123456789


# ----------------------------------------------------------------------
# Cache (driven through the one walk: MemoryHierarchy.load / store)
# ----------------------------------------------------------------------
def _hierarchy(**overrides):
    config = ArchConfig(**overrides)
    return config, MemoryHierarchy(config)


class TestCache:
    def test_first_access_misses_then_hits(self):
        config, hierarchy = _hierarchy()
        assert hierarchy.load(0, (3,), now=0) > config.l1_hit_latency + config.l2_hit_latency
        assert hierarchy.load(0, (3,), now=200) == config.l1_hit_latency
        stats = hierarchy.statistics()
        assert stats["l1_hits"] == 1 and stats["l1_misses"] == 1

    def test_lru_eviction_within_a_set(self):
        # 2 ways, 4 sets: lines 0, 4, 8 all map to set 0 of the L1
        config, hierarchy = _hierarchy(l1_size_words=128, l1_ways=2)
        assert hierarchy.l1[0].num_sets == 4
        hierarchy.load(0, (0, 4), now=0)
        hierarchy.load(0, (0,), now=300)   # refresh line 0 -> line 4 becomes LRU
        assert hierarchy.l1[0].resident_lines == 2
        hierarchy.load(0, (8,), now=300)   # evicts line 4 from the L1
        assert hierarchy.l1[0].resident_lines == 2            # full set: one out, one in
        assert list(hierarchy.l1[0]._sets[0]) == [0, 8]       # LRU first
        hierarchy.statistics()
        assert hierarchy.load(0, (0,), now=600) == config.l1_hit_latency
        assert hierarchy.load(0, (4,), now=600) == config.l1_hit_latency + config.l2_hit_latency
        stats = hierarchy.statistics()
        assert (stats["l1_hits"], stats["l1_misses"], stats["l2_hits"]) == (1, 1, 1)
        # the refill of line 4 evicted line 8, the LRU of the set after line 0's hit
        assert list(hierarchy.l1[0]._sets[0]) == [0, 4]

    def test_writes_are_write_through_no_allocate(self):
        config, hierarchy = _hierarchy()
        hierarchy.store(0, (7,), now=0)
        assert hierarchy.l1[0].resident_lines == 0 and hierarchy.l2.resident_lines == 0
        # stores are not load traffic: the hit/miss counters stay at zero
        assert hierarchy.statistics() == {"l1_hits": 0, "l1_misses": 0, "l2_hits": 0,
                                          "l2_misses": 0, "dram_lines": 1,
                                          "dram_queue_cycles": 0}
        # the write did not allocate at either level, so a later read misses both
        assert hierarchy.load(0, (7,), now=300) > config.l1_hit_latency + config.l2_hit_latency
        stats = hierarchy.statistics()
        assert stats["l2_misses"] == 1
        assert stats["dram_lines"] == 1          # the load's line; the write's was drained

    def test_invalidate_clears_contents(self):
        config, hierarchy = _hierarchy()
        hierarchy.load(0, (1, 2), now=0)
        assert hierarchy.l1[0].resident_lines == 2
        hierarchy.invalidate()
        assert hierarchy.l1[0].resident_lines == 0
        assert hierarchy.load(0, (1,), now=0) > config.l1_hit_latency + config.l2_hit_latency

    def test_reset_statistics_keeps_contents(self):
        config, hierarchy = _hierarchy()
        hierarchy.load(0, (1,), now=0)
        hierarchy.statistics()                   # drains the counters ...
        assert set(hierarchy.statistics().values()) == {0}
        assert hierarchy.load(0, (1,), now=300) == config.l1_hit_latency   # ... not the lines

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            Cache("bad", size_words=100, line_words=16, ways=3)
        with pytest.raises(ValueError):
            Cache("bad", size_words=0, line_words=16, ways=1)


# ----------------------------------------------------------------------
# DRAM
# ----------------------------------------------------------------------
class TestDram:
    """DRAM queueing, driven through the walk: every line a load misses at
    both levels, and every line a store writes, takes one DRAM slot."""

    @staticmethod
    def _dram_hierarchy(latency, lines_per_cycle):
        return _hierarchy(l1_hit_latency=1, l2_hit_latency=0, dram_latency=latency,
                          dram_lines_per_cycle=lines_per_cycle)[1]

    def test_single_access_latency(self):
        hierarchy = self._dram_hierarchy(100, 2.0)
        assert hierarchy.load(0, (0,), now=10) == 1 + 100
        assert hierarchy.statistics()["dram_lines"] == 1

    def test_bandwidth_queueing_builds_up(self):
        hierarchy = self._dram_hierarchy(100, 0.5)    # one line every 2 cycles
        # line i is issued at cycle i and served at 2 * i: it arrives at
        # index i + (2 * i + 100 - i) + 1 = 2 * i + 101
        assert hierarchy.load(0, (0, 1, 2), now=0) == 2 * 2 + 101
        stats = hierarchy.statistics()
        assert stats["dram_lines"] == 3
        assert stats["dram_queue_cycles"] == 0 + 1 + 2
        # a store issued at cycle 0 waits for the slot after the load's lines
        hierarchy.store(0, (3, 4), now=0)
        stats = hierarchy.statistics()
        assert (stats["dram_lines"], stats["dram_queue_cycles"]) == (2, 6 + 7)
        assert hierarchy.load(0, (5,), now=0) == 10 + 101

    def test_idle_gaps_do_not_accumulate_credit(self):
        hierarchy = self._dram_hierarchy(10, 1.0)
        hierarchy.store(0, (0,), now=0)
        # long idle gap; the next access at cycle 100 must not be early
        assert hierarchy.load(0, (1,), now=100) == 1 + 10
        assert hierarchy.statistics()["dram_queue_cycles"] == 0

    def test_fractional_slots_accumulate_exactly(self):
        hierarchy = self._dram_hierarchy(0, 3.0)      # a third of a cycle per line
        hierarchy.store(0, range(6), now=0)            # all free: line i issued at i
        assert hierarchy.dram._next_free == 5 + 1.0 / 3.0
        hierarchy.store(0, range(6, 12), now=0)        # each waits for the slot
        # Slots are a running float sum, truncated per line: the third and
        # sixth land just below 6.0 and 7.0 (exact thirds would queue 20).
        assert hierarchy.statistics()["dram_queue_cycles"] == 5 + 4 + 3 + 3 + 2 + 1

    def test_reset_clears_queue_and_statistics(self):
        hierarchy = self._dram_hierarchy(10, 0.1)
        hierarchy.load(0, (0, 1), now=0)
        hierarchy.invalidate()
        assert hierarchy.statistics()["dram_lines"] == 0
        assert hierarchy.load(0, (0,), now=0) == 1 + 10

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DramModel(latency=-1, lines_per_cycle=1)
        with pytest.raises(ValueError):
            DramModel(latency=1, lines_per_cycle=0)
        with pytest.raises(ValueError):
            DramModel(latency=1, lines_per_cycle=float("nan"))


# ----------------------------------------------------------------------
# Coalescer
# ----------------------------------------------------------------------
class TestCoalescer:
    def test_consecutive_addresses_coalesce_to_one_line(self):
        assert coalesce([0, 1, 2, 3], line_words=16) == [0]

    def test_strided_addresses_hit_multiple_lines(self):
        assert coalesce([0, 16, 32, 48], line_words=16) == [0, 1, 2, 3]

    def test_duplicate_addresses_share_a_request(self):
        assert coalesce([5, 5, 5], line_words=16) == [0]

    def test_order_is_first_appearance(self):
        assert coalesce([32, 0, 33], line_words=16) == [2, 0]

    def test_invalid_line_size_rejected(self):
        with pytest.raises(ValueError):
            coalesce([0], line_words=0)


# ----------------------------------------------------------------------
# MemoryHierarchy
# ----------------------------------------------------------------------
class TestHierarchy:
    def test_cold_load_goes_to_dram_then_hits_l1(self):
        config, hierarchy = _hierarchy(cores=2)
        first = hierarchy.load(0, (5,), now=0)
        assert first == config.l1_hit_latency + config.l2_hit_latency + config.dram_latency
        second = hierarchy.load(0, (5,), now=200)
        assert second == config.l1_hit_latency
        stats = hierarchy.statistics()
        assert (stats["l1_hits"], stats["l2_misses"], stats["dram_lines"]) == (1, 1, 1)

    def test_l2_is_shared_between_cores(self):
        config, hierarchy = _hierarchy(cores=2)
        hierarchy.load(0, (7,), now=0)           # core 0 brings the line into L2
        hierarchy.statistics()
        assert hierarchy.load(1, (7,), now=300) == config.l1_hit_latency + config.l2_hit_latency
        stats = hierarchy.statistics()
        assert (stats["l1_misses"], stats["l2_hits"], stats["dram_lines"]) == (1, 1, 0)

    def test_stores_never_stall(self):
        _, hierarchy = _hierarchy(cores=2)
        assert hierarchy.store(0, (9, 10), now=0) is None
        assert hierarchy.statistics()["dram_lines"] == 2

    def test_statistics_aggregate_all_levels(self):
        _, hierarchy = _hierarchy(cores=2)
        hierarchy.load(0, (1,), now=0)
        hierarchy.load(0, (1,), now=300)
        stats = hierarchy.statistics()
        assert stats["l1_hits"] == 1
        assert stats["l1_misses"] == 1
        assert stats["l2_misses"] == 1
        assert stats["dram_lines"] == 1
        assert set(hierarchy.statistics().values()) == {0}     # drained

    def test_invalidate_resets_everything(self):
        config, hierarchy = _hierarchy(cores=2)
        hierarchy.load(0, (1,), now=0)
        hierarchy.invalidate()
        stats = hierarchy.statistics()
        assert stats == {"l1_hits": 0, "l1_misses": 0, "l2_hits": 0, "l2_misses": 0,
                         "dram_lines": 0, "dram_queue_cycles": 0}
        assert hierarchy.load(0, (1,), now=0) == (
            config.l1_hit_latency + config.l2_hit_latency + config.dram_latency)


# ----------------------------------------------------------------------
# The walk's oracle: an independent model of load / store
# ----------------------------------------------------------------------
STAT_NAMES = ("l1_hits", "l1_misses", "l2_hits", "l2_misses", "dram_lines",
              "dram_queue_cycles")


class WalkModel:
    """The walk written from its definition: each set is a list in LRU order
    (least recent first), loads allocate at both levels, stores are
    write-through and allocate at neither, and DRAM serves line ``i`` of a
    call, issued at ``now + i``, at ``max(issue, next free slot)``."""

    def __init__(self, config):
        def sets(size, ways):
            return [[] for _ in range(size // (config.l1_line_words * ways))]

        self.config = config
        self.l1 = [sets(config.l1_size_words, config.l1_ways) for _ in range(config.cores)]
        self.l2 = sets(config.l2_size_words, config.l2_ways)
        self.next_free = 0.0
        self.stats = dict.fromkeys(STAT_NAMES, 0)

    @staticmethod
    def _touch(sets, line, ways, allocate):
        lru = sets[line % len(sets)]
        hit = line in lru
        if hit:
            lru.remove(line)
        elif not allocate:
            return False
        elif len(lru) == ways:
            lru.pop(0)
        lru.append(line)
        return hit

    def _dram(self, issued):
        start = max(float(issued), self.next_free)
        self.next_free = start + 1.0 / self.config.dram_lines_per_cycle
        self.stats["dram_lines"] += 1
        self.stats["dram_queue_cycles"] += int(start - issued)
        return int(start + self.config.dram_latency) - issued

    def load(self, core, lines, now):
        config, latency = self.config, 1
        for i, line in enumerate(lines):
            arrival = i + config.l1_hit_latency
            if self._touch(self.l1[core], line, config.l1_ways, allocate=True):
                self.stats["l1_hits"] += 1
            elif self._touch(self.l2, line, config.l2_ways, allocate=True):
                self.stats["l1_misses"] += 1
                self.stats["l2_hits"] += 1
                arrival += config.l2_hit_latency
            else:
                self.stats["l1_misses"] += 1
                self.stats["l2_misses"] += 1
                arrival += config.l2_hit_latency + self._dram(now + i)
            latency = max(latency, arrival)
        return latency

    def store(self, core, lines, now):
        for i, line in enumerate(lines):
            self._touch(self.l1[core], line, self.config.l1_ways, allocate=False)
            self._touch(self.l2, line, self.config.l2_ways, allocate=False)
            self._dram(now + i)


def _drained(model):
    stats, model.stats = model.stats, dict.fromkeys(STAT_NAMES, 0)
    return stats


def _resident(cache):
    return [list(entry) for entry in cache._sets]


_calls = st.lists(
    st.tuples(st.sampled_from(["load", "load", "store", "drain"]),
              st.integers(min_value=0, max_value=2),                   # core (mod cores)
              st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6,
                       unique=True),                                    # coalesced lines
              st.integers(min_value=0, max_value=60)),                  # cycles since last call
    min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(cores=st.integers(min_value=1, max_value=3),
       l1=st.sampled_from([(1, 1), (2, 2), (4, 2), (2, 4)]),            # (sets, ways)
       l2=st.sampled_from([(1, 4), (2, 2), (4, 4), (8, 2)]),
       latencies=st.sampled_from([(1, 3, 0), (2, 20, 100), (3, 7, 11)]),  # l1, l2, dram
       lines_per_cycle=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
       calls=_calls)
def test_walk_matches_an_independent_model(cores, l1, l2, latencies, lines_per_cycle,
                                           calls):
    line_words = 4
    config = ArchConfig(cores=cores, l1_line_words=line_words, l2_line_words=line_words,
                        l1_size_words=l1[0] * l1[1] * line_words, l1_ways=l1[1],
                        l2_size_words=l2[0] * l2[1] * line_words, l2_ways=l2[1],
                        l1_hit_latency=latencies[0], l2_hit_latency=latencies[1],
                        dram_latency=latencies[2], dram_lines_per_cycle=lines_per_cycle)
    hierarchy, model = MemoryHierarchy(config), WalkModel(config)
    now = 0
    for kind, core, lines, gap in calls:
        core %= cores
        now += gap
        if kind == "drain":
            assert hierarchy.statistics() == _drained(model)
        elif kind == "load":
            assert hierarchy.load(core, lines, now) == model.load(core, lines, now)
        else:
            assert hierarchy.store(core, lines, now) is None
            model.store(core, lines, now)
    assert hierarchy.statistics() == _drained(model)
    assert _resident(hierarchy.l2) == model.l2
    for cache, sets in zip(hierarchy.l1, model.l1):
        assert _resident(cache) == sets
