"""Property test: the per-set Python cache is bit-identical to a reference.

:class:`~repro.mem.cache.Cache` keeps each set's tags in a Python list and
its replacement state (:mod:`repro.mem.replacement`) in per-set lists; the
random policy draws its victims in batches.  None of that may be
observable.  This file keeps the numpy implementation those lists replaced
— one ``int64`` tag row per set with ``-1`` for an empty way,
``np.nonzero`` lookups, ``np.argmin`` LRU victims, a numpy FIFO pointer
row and one ``int(rng.integers(n_ways))`` per random eviction — as
``RefCache`` and the ``Ref*State`` classes, and requires ``==`` on every
hit/miss, on ``CacheStats`` and on ``resident_lines()`` over
Hypothesis-drawn geometries, policies, seeds and traces with ``lookup``
calls and one ``invalidate_all`` mixed in.  ``RefHierarchy`` is a
:class:`~repro.mem.hierarchy.CacheHierarchy` on reference caches with the
per-element ``access_trace``/``interleave`` loops; the production
hierarchy must report the same level for every access and the same
per-core stats.

Addresses are non-negative: there the reference is right.  (On negative
addresses its ``-1`` marker aliases a real tag, which
``tests/mem/test_cache.py`` pins as fixed.)
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, MachineConfig
from repro.mem.cache import Cache, CacheStats
from repro.mem.hierarchy import CacheHierarchy, HierarchyStats
from repro.mem.replacement import FifoState, RandomState, make_replacement


# ----------------------------------------------------------------------
# the reference: the numpy cache, kept as the specification
# ----------------------------------------------------------------------
class RefLruState:
    """True LRU via a per-set monotonically increasing timestamp array."""

    def __init__(self, n_sets: int, n_ways: int) -> None:
        self.n_ways = n_ways
        self._stamp = np.zeros((n_sets, n_ways), dtype=np.int64)
        self._clock = 0

    def on_access(self, set_idx: int, way: int) -> None:
        self._clock += 1
        self._stamp[set_idx, way] = self._clock

    def victim(self, set_idx: int) -> int:
        return int(np.argmin(self._stamp[set_idx]))


class RefFifoState:
    """First-in first-out: a round-robin fill pointer per set."""

    def __init__(self, n_sets: int, n_ways: int) -> None:
        self.n_ways = n_ways
        self._ptr = np.zeros(n_sets, dtype=np.int64)

    def on_access(self, set_idx: int, way: int) -> None:
        pass

    def victim(self, set_idx: int) -> int:
        way = int(self._ptr[set_idx])
        self._ptr[set_idx] = (way + 1) % self.n_ways
        return way


class RefRandomState:
    """Random replacement: one generator draw per eviction."""

    def __init__(self, n_sets: int, n_ways: int, seed: int = 0) -> None:
        self.n_ways = n_ways
        self._rng = np.random.default_rng(seed)

    def on_access(self, set_idx: int, way: int) -> None:
        pass

    def victim(self, set_idx: int) -> int:
        return int(self._rng.integers(self.n_ways))


def ref_replacement(name: str, n_sets: int, n_ways: int, seed: Optional[int] = None):
    if name == "lru":
        return RefLruState(n_sets, n_ways)
    if name == "fifo":
        return RefFifoState(n_sets, n_ways)
    return RefRandomState(n_sets, n_ways, seed=seed or 0)


class RefCache:
    """The numpy set-associative cache: tags[set, way], -1 = empty."""

    def __init__(self, config: CacheConfig, replacement: str = "lru",
                 seed: Optional[int] = None) -> None:
        self.config = config
        self.n_sets = config.n_sets
        self.n_ways = config.associativity
        self._line_shift = config.line_bytes.bit_length() - 1
        self._tags = np.full((self.n_sets, self.n_ways), -1, dtype=np.int64)
        self._repl = ref_replacement(replacement, self.n_sets, self.n_ways, seed=seed)
        self.stats = CacheStats()

    def _locate(self, address: int):
        line = address >> self._line_shift
        return line % self.n_sets, line // self.n_sets

    def lookup(self, address: int) -> bool:
        set_idx, tag = self._locate(address)
        return bool((self._tags[set_idx] == tag).any())

    def access(self, address: int) -> bool:
        set_idx, tag = self._locate(address)
        ways = self._tags[set_idx]
        hits = np.nonzero(ways == tag)[0]
        self.stats.accesses += 1
        if hits.size:
            way = int(hits[0])
            self._repl.on_access(set_idx, way)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        empty = np.nonzero(ways == -1)[0]
        if empty.size:
            way = int(empty[0])
        else:
            way = self._repl.victim(set_idx)
            self.stats.evictions += 1
        ways[way] = tag
        self._repl.on_access(set_idx, way)
        return False

    def access_trace(self, addresses) -> CacheStats:
        for a in addresses:
            self.access(int(a))
        return self.stats

    def invalidate_all(self) -> None:
        self._tags.fill(-1)

    def resident_lines(self) -> int:
        return int((self._tags != -1).sum())


class RefHierarchy(CacheHierarchy):
    """The hierarchy on reference caches, with the per-element loops."""

    def __init__(self, n_cores: int, config: MachineConfig,
                 seed: Optional[int] = None) -> None:
        super().__init__(n_cores, config, seed=seed)
        for core in self.cores:
            core.l1 = RefCache(config.l1d, seed=seed)
            core.l2 = RefCache(config.l2, seed=seed)
        self.llc = RefCache(config.llc, seed=seed)

    def access(self, core: int, address: int):
        caches = self.cores[core]
        st = self.stats[core]
        if caches.l1.access(address):
            st.l1_hits += 1
            return self._hit_l1
        if caches.l2.access(address):
            st.l2_hits += 1
            return self._hit_l2
        if self.llc.access(address):
            st.llc_hits += 1
            return self._hit_llc
        st.dram_accesses += 1
        return self._miss_dram

    def access_trace(self, core: int, addresses) -> HierarchyStats:
        for a in addresses:
            self.access(core, int(a))
        return self.stats[core]

    def interleave(self, traces: Sequence[Sequence[int]]) -> List[HierarchyStats]:
        if len(traces) > len(self.cores):
            raise ValueError("more traces than cores")
        longest = max((len(t) for t in traces), default=0)
        for k in range(longest):
            for core, trace in enumerate(traces):
                if k < len(trace):
                    self.access(core, int(trace[k]))
        return [self.stats[i] for i in range(len(traces))]


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def geometries(draw):
    line = draw(st.sampled_from((32, 64, 128)))
    ways = draw(st.sampled_from((1, 2, 4, 8, 16, 20)))
    sets = draw(st.integers(min_value=1, max_value=64))
    return CacheConfig("eq", line * ways * sets, line_bytes=line, associativity=ways)


@st.composite
def workloads(draw, config: CacheConfig):
    """(ops, invalidate point): accesses and lookups over a pool of lines.

    The pool holds up to three times the cache's lines, so traces both
    re-touch resident lines and evict.
    """
    pool = draw(st.integers(min_value=1, max_value=3 * config.n_lines + 2))
    length = draw(st.integers(min_value=1, max_value=1500))
    lookup_share = draw(st.sampled_from((0.0, 0.1, 0.3)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    lines = rng.integers(0, pool, size=length)
    offsets = rng.integers(0, config.line_bytes, size=length)
    addresses = (lines * config.line_bytes + offsets).tolist()
    lookups = (rng.random(length) < lookup_share).tolist()
    ops = list(zip(lookups, addresses))
    return ops, draw(st.integers(min_value=0, max_value=length))


def run_ops(cache, ops, invalidate_at: int) -> list:
    outcomes = []
    for k, (is_lookup, address) in enumerate(ops):
        if k == invalidate_at:
            cache.invalidate_all()
            outcomes.append(("flush", cache.resident_lines()))
        if is_lookup:
            outcomes.append(("lookup", cache.lookup(address)))
        else:
            outcomes.append(cache.access(address))
    return outcomes


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------
class TestCacheEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), config=geometries(),
           policy=st.sampled_from(("lru", "fifo", "random")),
           seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)))
    def test_same_outcomes_stats_and_residency(self, data, config, policy, seed):
        ops, invalidate_at = data.draw(workloads(config))
        cache = Cache(config, replacement=policy, seed=seed)
        ref = RefCache(config, replacement=policy, seed=seed)
        assert run_ops(cache, ops, invalidate_at) == run_ops(ref, ops, invalidate_at)
        assert cache.stats == ref.stats
        assert cache.resident_lines() == ref.resident_lines()

    @settings(max_examples=40, deadline=None)
    @given(config=geometries(), policy=st.sampled_from(("lru", "fifo", "random")),
           seed=st.integers(min_value=0, max_value=2**16),
           trace_seed=st.integers(min_value=0, max_value=2**32 - 1),
           as_array=st.booleans())
    def test_access_trace_matches(self, config, policy, seed, trace_seed, as_array):
        rng = np.random.default_rng(trace_seed)
        trace = rng.integers(0, 2 * config.capacity_bytes, size=800)
        cache = Cache(config, replacement=policy, seed=seed)
        ref = RefCache(config, replacement=policy, seed=seed)
        given_trace = trace if as_array else trace.tolist()
        assert cache.access_trace(given_trace) == ref.access_trace(trace)
        assert cache.resident_lines() == ref.resident_lines()

    @pytest.mark.parametrize("ways", [1, 3, 4, 16, 20])
    def test_random_evictions_cross_draw_batches(self, ways):
        """Thousands of evictions: several batches of drawn victims."""
        config = CacheConfig("eq", 64 * ways * 2, associativity=ways)
        trace = [(k * 7919 % (8 * config.n_lines)) * 64 for k in range(4000)]
        cache = Cache(config, replacement="random", seed=11)
        ref = RefCache(config, replacement="random", seed=11)
        assert [cache.access(a) for a in trace] == [ref.access(a) for a in trace]
        assert cache.stats == ref.stats
        assert cache.stats.evictions > 3 * RandomState.BATCH


# ----------------------------------------------------------------------
# the replacement states on their own
# ----------------------------------------------------------------------
class TestReplacementEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(n_sets=st.integers(min_value=1, max_value=8),
           n_ways=st.integers(min_value=1, max_value=20),
           steps=st.lists(st.integers(0, 7), max_size=200))
    def test_same_victims(self, n_sets, n_ways, steps):
        state = make_replacement("fifo", n_sets, n_ways)
        ref = ref_replacement("fifo", n_sets, n_ways)
        for set_idx in steps:
            set_idx %= n_sets
            assert state.victim(set_idx) == ref.victim(set_idx)

    @settings(max_examples=60, deadline=None)
    @given(n_ways=st.sampled_from((1, 2, 3, 4, 5, 7, 8, 12, 16, 20, 128)),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           count=st.integers(min_value=0, max_value=3 * RandomState.BATCH + 7))
    def test_random_draws_one_victim_per_eviction(self, n_ways, seed, count):
        state = RandomState(n_sets=1, n_ways=n_ways, seed=seed)
        ref = RefRandomState(n_sets=1, n_ways=n_ways, seed=seed)
        assert [state.victim(0) for _ in range(count)] == [
            ref.victim(0) for _ in range(count)
        ]

    def test_factory_classes_are_the_production_ones(self):
        assert isinstance(make_replacement("fifo", 1, 2), FifoState)
        assert isinstance(make_replacement("random", 1, 2), RandomState)


# ----------------------------------------------------------------------
# the hierarchy
# ----------------------------------------------------------------------
def small_machine() -> MachineConfig:
    """Tiny levels so short traces reach every level and the LLC evicts."""
    return MachineConfig(
        l1d=CacheConfig("L1-Data", 64 * 2 * 4, associativity=2),
        l2=CacheConfig("L2-Private", 64 * 4 * 8, associativity=4),
        llc=CacheConfig("L3-Shared", 64 * 8 * 16, associativity=8, shared=True),
    )


@st.composite
def core_traces(draw):
    """One address array per core, of unequal lengths; cores may share lines."""
    n_cores = draw(st.integers(min_value=1, max_value=3))
    shared = draw(st.booleans())
    pool = draw(st.integers(min_value=4, max_value=600))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    lengths = draw(st.lists(st.integers(min_value=0, max_value=400),
                            min_size=n_cores, max_size=n_cores))
    return [
        rng.integers(0, pool, size=n) * 64 + (0 if shared else core << 20)
        for core, n in enumerate(lengths)
    ]


class TestHierarchyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(traces=core_traces(), seed=st.one_of(st.none(), st.integers(0, 99)))
    def test_same_levels_and_stats(self, traces, seed):
        machine = small_machine()
        h = CacheHierarchy(len(traces), machine, seed=seed)
        ref = RefHierarchy(len(traces), machine, seed=seed)
        rounds = [(core, int(a)) for core, t in enumerate(traces) for a in t]
        assert [h.access(c, a).level for c, a in rounds] == [
            ref.access(c, a).level for c, a in rounds
        ]
        assert h.stats == ref.stats

    @settings(max_examples=60, deadline=None)
    @given(traces=core_traces(), as_arrays=st.booleans())
    def test_interleave_unequal_lengths(self, traces, as_arrays):
        machine = small_machine()
        h = CacheHierarchy(len(traces), machine)
        ref = RefHierarchy(len(traces), machine)
        given_traces = traces if as_arrays else [t.tolist() for t in traces]
        assert h.interleave(given_traces) == ref.interleave(traces)
        assert h.stats == ref.stats
        # the interleaved state carries on: a second pass still agrees
        assert h.access_trace(0, given_traces[0]) == ref.access_trace(0, traces[0])
        assert h.stats == ref.stats
