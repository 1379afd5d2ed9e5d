"""Tests for the LRU simulator and stack-distance analyzer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.lru import LRUCache
from repro.machine.stack_distance import StackDistanceAnalyzer


class TestLRUCache:
    def test_cold_misses(self):
        c = LRUCache(4)
        for a in range(4):
            assert not c.access(a)
        assert c.stats.misses == 4 and c.stats.hits == 0

    def test_hits_on_resident(self):
        c = LRUCache(4)
        c.access(1)
        assert c.access(1)
        assert c.stats.hits == 1

    def test_lru_eviction_order(self):
        c = LRUCache(2)
        c.access(1)
        c.access(2)
        c.access(1)  # 2 is now LRU
        c.access(3)  # evicts 2
        assert 1 in c and 3 in c and 2 not in c

    def test_dirty_writeback(self):
        c = LRUCache(1)
        c.access(1, is_write=True)
        c.access(2)  # evicts dirty 1
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = LRUCache(1)
        c.access(1)
        c.access(2)
        assert c.stats.writebacks == 0

    def test_flush(self):
        c = LRUCache(4)
        c.access(1, is_write=True)
        c.access(2)
        assert c.flush() == 1
        assert len(c) == 0

    def test_write_no_allocate(self):
        c = LRUCache(2, write_allocate=False)
        c.access(1, is_write=True)
        assert 1 not in c
        assert c.stats.writebacks == 1

    def test_replay(self):
        c = LRUCache(2)
        stats = c.replay([(1, False), (2, False), (1, False)])
        assert stats.accesses == 3 and stats.hits == 1

    def test_traffic_words(self):
        c = LRUCache(1)
        c.access(1, is_write=True)
        c.access(2)
        assert c.stats.traffic_words == c.stats.misses + 1

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_miss_rate(self):
        c = LRUCache(8)
        assert c.stats.miss_rate == 0.0
        c.access(1)
        c.access(1)
        assert c.stats.miss_rate == pytest.approx(0.5)


class TestStackDistance:
    def test_simple_trace(self):
        # trace: a b a  -> distance of second 'a' is 1 (only b in between)
        an = StackDistanceAnalyzer().analyze([10, 20, 10])
        assert an.cold_misses == 2
        assert an.distances == [1]

    def test_immediate_reuse_distance_zero(self):
        an = StackDistanceAnalyzer().analyze([5, 5])
        assert an.distances == [0]

    def test_misses_match_direct_lru(self):
        rng = random.Random(42)
        trace = [rng.randrange(30) for _ in range(400)]
        an = StackDistanceAnalyzer().analyze(trace)
        for M in (1, 2, 4, 8, 16, 32):
            direct = LRUCache(M)
            for a in trace:
                direct.access(a)
            assert an.misses(M) == direct.stats.misses, f"M={M}"

    @settings(max_examples=25)
    @given(st.lists(st.integers(0, 12), min_size=1, max_size=120), st.integers(1, 16))
    def test_misses_match_direct_lru_property(self, trace, M):
        an = StackDistanceAnalyzer().analyze(trace)
        direct = LRUCache(M)
        for a in trace:
            direct.access(a)
        assert an.misses(M) == direct.stats.misses

    def test_miss_curve_monotone(self):
        rng = random.Random(7)
        trace = [rng.randrange(50) for _ in range(500)]
        an = StackDistanceAnalyzer().analyze(trace)
        curve = an.miss_curve([1, 2, 4, 8, 16, 32, 64])
        values = [curve[m] for m in sorted(curve)]
        assert values == sorted(values, reverse=True)

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            StackDistanceAnalyzer().analyze([1]).misses(0)

    def test_accesses_count(self):
        an = StackDistanceAnalyzer().analyze([1, 2, 1, 2])
        assert an.accesses == 4

    def test_miss_curve_matches_scalar_misses(self):
        rng = random.Random(3)
        an = StackDistanceAnalyzer().analyze(
            [rng.randrange(40) for _ in range(300)]
        )
        caps = [1, 3, 7, 20, 64]
        curve = an.miss_curve(caps)
        assert curve == {m: an.misses(m) for m in caps}

    def test_miss_curve_bad_capacity(self):
        with pytest.raises(ValueError):
            StackDistanceAnalyzer().analyze([1]).miss_curve([4, 0])

    def test_reanalyze_invalidates_cached_histogram(self):
        an = StackDistanceAnalyzer().analyze([1, 2, 1])
        first = an.misses(4)
        an.analyze([1, 2, 1])
        assert an.misses(4) != first or an.accesses == 6
