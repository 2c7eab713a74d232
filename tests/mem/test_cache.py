"""Set-associative cache simulator tests, with LRU stack properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.mem.cache import Cache


def toy_cache(capacity=4096, ways=4, replacement="lru", line=64):
    return Cache(
        CacheConfig("toy", capacity, line_bytes=line, associativity=ways),
        replacement=replacement,
    )


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        c = toy_cache()
        assert c.access(0) is False
        assert c.access(0) is True

    def test_same_line_aliases(self):
        c = toy_cache(line=64)
        c.access(0)
        assert c.access(63) is True
        assert c.access(64) is False

    def test_lookup_does_not_fill(self):
        c = toy_cache()
        assert c.lookup(0) is False
        assert c.access(0) is False  # still a miss

    def test_stats_accumulate(self):
        c = toy_cache()
        c.access_trace([0, 0, 64, 0])
        assert c.stats.accesses == 4
        assert c.stats.hits == 2
        assert c.stats.misses == 2
        assert c.stats.hit_rate == pytest.approx(0.5)

    def test_invalidate_all_empties(self):
        c = toy_cache()
        c.access(0)
        c.invalidate_all()
        assert c.resident_lines() == 0
        assert c.access(0) is False

    def test_resident_bytes(self):
        c = toy_cache()
        for i in range(5):
            c.access(i * 64)
        assert c.resident_bytes() == 5 * 64

    def test_negative_addresses_do_not_hit_empty_ways(self):
        """Line -1 maps to tag -1 in a 16-set cache: an empty way is no match."""
        c = toy_cache(capacity=4096, ways=4)  # 16 sets
        assert c.lookup(-128) is False
        assert c.access(-64) is False
        assert c.stats.hits == 0 and c.resident_lines() == 1
        assert c.access(-64) is True
        assert c.lookup(-128) is False  # same set and tag sign, other line


class TestEviction:
    def test_set_overflow_evicts(self):
        c = toy_cache(capacity=4096, ways=4)  # 16 sets
        n_sets = c.n_sets
        # 5 lines mapping to set 0: the first is LRU and must be evicted
        addrs = [k * n_sets * 64 for k in range(5)]
        for a in addrs:
            c.access(a)
        assert c.stats.evictions == 1
        assert c.access(addrs[0]) is False  # evicted
        assert c.access(addrs[4]) is True

    def test_lru_protects_recently_used(self):
        c = toy_cache(capacity=4096, ways=4)
        n_sets = c.n_sets
        addrs = [k * n_sets * 64 for k in range(4)]
        for a in addrs:
            c.access(a)
        c.access(addrs[0])  # make line 0 MRU
        c.access(4 * n_sets * 64)  # evicts addrs[1], not addrs[0]
        assert c.access(addrs[0]) is True
        assert c.access(addrs[1]) is False

    def test_working_set_within_capacity_all_hits_on_second_pass(self):
        c = toy_cache(capacity=64 * 1024, ways=8)
        lines = [i * 64 for i in range(512)]  # exactly half capacity
        c.access_trace(lines)
        before = c.stats.hits
        c.access_trace(lines)
        assert c.stats.hits == before + len(lines)

    def test_thrash_when_working_set_exceeds_capacity_fifo_pattern(self):
        c = toy_cache(capacity=4096, ways=4)
        lines = [i * 64 for i in range(2 * 4096 // 64)]
        c.access_trace(lines)
        c.stats.reset()
        c.access_trace(lines)  # sequential re-sweep of 2x capacity under LRU
        assert c.stats.hit_rate == 0.0


class TestReplacementPolicies:
    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_all_policies_function(self, policy):
        c = toy_cache(replacement=policy)
        trace = [(i % 32) * 64 for i in range(1000)]  # fits: 32 of 64 lines
        c.access_trace(trace)
        assert c.stats.accesses == 1000
        assert 0 < c.stats.hits <= 1000

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            toy_cache(replacement="plru2")

    def test_random_policy_deterministic_with_seed(self):
        trace = [(i * 7919 % 4096) * 64 for i in range(2000)]
        a = toy_cache(replacement="random")
        b = toy_cache(replacement="random")
        a.access_trace(trace)
        b.access_trace(trace)
        assert a.stats.hits == b.stats.hits


class TestCapacityMonotonicityProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=50, max_size=400)
    )
    def test_bigger_lru_cache_never_hits_less(self, addrs):
        """LRU inclusion: a fully-associative-per-set superset cache of twice
        the ways hits on every address a smaller one hits."""
        small = Cache(
            CacheConfig("s", 64 * 64, line_bytes=64, associativity=64)
        )  # fully associative, 64 lines
        big = Cache(
            CacheConfig("b", 128 * 64, line_bytes=64, associativity=128)
        )  # fully associative, 128 lines
        for a in addrs:
            hs = small.access(a)
            hb = big.access(a)
            assert hb or not hs  # small hit implies big hit

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=10, max_size=200)
    )
    def test_stats_are_consistent(self, addrs):
        c = toy_cache()
        c.access_trace(addrs)
        assert c.stats.hits + c.stats.misses == c.stats.accesses
        assert c.resident_lines() <= c.config.n_lines
