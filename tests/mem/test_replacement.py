"""Replacement policy state machine tests."""

import pytest

from repro.mem.replacement import FifoState, RandomState, make_replacement


class TestFifo:
    def test_round_robin_victims(self):
        fifo = FifoState(n_sets=1, n_ways=3)
        assert [fifo.victim(0) for _ in range(5)] == [0, 1, 2, 0, 1]


class TestRandom:
    def test_victims_in_range_and_deterministic(self):
        a = RandomState(n_sets=1, n_ways=8, seed=7)
        b = RandomState(n_sets=1, n_ways=8, seed=7)
        va = [a.victim(0) for _ in range(50)]
        vb = [b.victim(0) for _ in range(50)]
        assert va == vb
        assert all(0 <= v < 8 for v in va)
        assert len(set(va)) > 1  # actually random


class TestFactory:
    @pytest.mark.parametrize("name,cls", [("fifo", FifoState), ("random", RandomState)])
    def test_dispatch(self, name, cls):
        assert isinstance(make_replacement(name, 4, 4), cls)

    def test_lru_keeps_no_state(self):
        # the cache keeps LRU order in its own set lists
        assert make_replacement("lru", 4, 4) is None

    def test_case_insensitive(self):
        assert make_replacement("LRU", 4, 4) is None

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            make_replacement("mru", 4, 4)
