"""Property test: the figure-12 generators and window statistics are exact.

The four figure-12 generators build their (rows × per-row) address arrays
in one broadcast, and :func:`~repro.mem.working_set.window_stats` derives
its counts from one in-place sort.  This file keeps the per-row loops
(interleave one row, append it, concatenate the rows, truncate) and the
``np.unique``-based window statistics they replaced, and requires the
same int64 addresses, JMP samples and labels, and ``==`` window stats.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.experiments.figures import OCEAN_INPUTS, WATER_INPUTS
from repro.mem.address import AddressSpace
from repro.mem.trace import MemoryTrace
from repro.mem.working_set import WindowStats, window_stats
from repro.profiler.sampling import sample_windows
from repro.workloads import tracegen
from repro.workloads.tracegen import _jmps_for


# ----------------------------------------------------------------------
# the reference: per-row loops and np.unique, kept as the specification
# ----------------------------------------------------------------------
def _interleave(*streams: np.ndarray) -> np.ndarray:
    return np.stack(streams, axis=1).reshape(-1)


def ref_water_pp1(n_molecules: int, n_accesses: int, jmp_layout=None) -> MemoryTrace:
    mol = AddressSpace().alloc("molecules", n_molecules * 192)
    slab = min(max(64, int(90 * n_molecules**0.55)), n_molecules)
    rows = max(1, n_accesses // (4 * slab))
    chunks = []
    j_base = np.arange(slab, dtype=np.int64)
    for i in range(rows):
        j_addrs = mol.element_addr((i + j_base) % n_molecules, 192)
        i_addrs = mol.element_addr(np.full(slab, i, dtype=np.int64), 192)
        chunks.append(_interleave(j_addrs, j_addrs + 64, j_addrs + 128, i_addrs))
    addrs = np.concatenate(chunks)[:n_accesses]
    return MemoryTrace(addrs, label=f"wnsq.pp1[{n_molecules}]",
                       jmp_addresses=_jmps_for(addrs.size, jmp_layout))


def ref_water_pp2(n_molecules: int, n_accesses: int, jmp_layout=None) -> MemoryTrace:
    deriv = AddressSpace().alloc("derivatives", n_molecules * 288)
    block_mols, passes = 16384, 8
    chunks = []
    produced = b = 0
    sweep = np.arange(block_mols, dtype=np.int64)
    while produced < n_accesses:
        idx = (b * block_mols) % max(1, n_molecules) + sweep
        for _ in range(passes):
            chunks.append(deriv.element_addr(idx, 288))
        produced += block_mols * passes
        b += 1
    addrs = np.concatenate(chunks)[:n_accesses]
    return MemoryTrace(addrs, label=f"wnsq.pp2[{n_molecules}]",
                       jmp_addresses=_jmps_for(addrs.size, jmp_layout))


def ref_ocean_pp1(dim: int, n_accesses: int, jmp_layout=None) -> MemoryTrace:
    grid = AddressSpace().alloc("grid", dim * dim * 8)
    row = np.arange(dim, dtype=np.int64)
    chunks = []
    produced, i = 0, 1
    while produced < n_accesses:
        center = ((i % (dim - 2) + 1) * dim + row) * 8
        chunks.append(_interleave(
            grid.addr(center), grid.addr(center - dim * 8),
            grid.addr(center + dim * 8), grid.addr(center - 8),
            grid.addr(center + 8),
        ))
        produced += 5 * dim
        i += 1
    addrs = np.concatenate(chunks)[:n_accesses]
    return MemoryTrace(addrs, label=f"ocean.pp1[{dim}]",
                       jmp_addresses=_jmps_for(addrs.size, jmp_layout))


def ref_ocean_pp2(dim: int, n_accesses: int, jmp_layout=None) -> MemoryTrace:
    side = max(16, int(dim * 0.6))
    field = AddressSpace().alloc("field", side * side * 8)
    cols = np.arange(0, side - 2, 2, dtype=np.int64)
    chunks = []
    produced, i = 0, 1
    while produced < n_accesses:
        r = i % (side - 2) + 1
        parity = (i // (side - 2)) % 2
        center = (r * side + cols + parity) * 8
        chunks.append(_interleave(
            field.addr(center), field.addr(center - side * 8),
            field.addr(center + side * 8), field.addr(center - 8),
            field.addr(center + 8),
        ))
        produced += 5 * cols.size
        i += 1
    addrs = np.concatenate(chunks)[:n_accesses]
    return MemoryTrace(addrs, label=f"ocean.pp2[{dim}]",
                       jmp_addresses=_jmps_for(addrs.size, jmp_layout))


def ref_window_stats(addresses, granularity_bytes: int = 64,
                     min_accesses: int = 2) -> WindowStats:
    arr = np.asarray(addresses, dtype=np.int64)
    if arr.size == 0:
        return WindowStats(0, 0, 0, 0.0)
    _, counts = np.unique(arr // granularity_bytes, return_counts=True)
    return WindowStats(
        n_accesses=int(arr.size),
        footprint_bytes=int(counts.size) * granularity_bytes,
        wss_bytes=int((counts >= min_accesses).sum()) * granularity_bytes,
        reuse_ratio=float(counts.mean()),
    )


# ----------------------------------------------------------------------
# the generators
# ----------------------------------------------------------------------
def _row_accesses(name: str, n: int) -> int:
    """Accesses one row (block, stencil line) of a generator emits."""
    if name == "water_pp1_trace":
        return 4 * min(max(64, int(90 * n**0.55)), n)
    if name == "water_pp2_trace":
        return 16384 * 8
    if name == "ocean_pp1_trace":
        return 5 * n
    return 5 * np.arange(0, max(16, int(n * 0.6)) - 2, 2).size


GENERATORS = {
    "water_pp1_trace": (ref_water_pp1, WATER_INPUTS, 64),
    "water_pp2_trace": (ref_water_pp2, WATER_INPUTS, 64),
    "ocean_pp1_trace": (ref_ocean_pp1, OCEAN_INPUTS, 16),
    "ocean_pp2_trace": (ref_ocean_pp2, OCEAN_INPUTS, 16),
}
_JMPS = {"inner_backedge": 0x401000, "outer_backedge": 0x402000, "stride": 64,
         "outer_every": 8}


def assert_same_trace(got: MemoryTrace, want: MemoryTrace) -> None:
    assert got.addresses.dtype == want.addresses.dtype == np.int64
    assert np.array_equal(got.addresses, want.addresses)
    assert got.label == want.label
    if want.jmp_addresses is None:
        assert got.jmp_addresses is None
    else:
        assert got.jmp_addresses.dtype == want.jmp_addresses.dtype
        assert np.array_equal(got.jmp_addresses, want.jmp_addresses)


class TestGeneratorEquivalence:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_figure12_scales_at_full_length(self, name):
        ref, scales, _ = GENERATORS[name]
        for n in scales:
            assert_same_trace(getattr(tracegen, name)(n, n_accesses=2_000_000),
                              ref(n, 2_000_000))

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_row_boundaries_and_minimum_size(self, name):
        ref, scales, minimum = GENERATORS[name]
        for n in (minimum, minimum + 1, scales[0]):
            row = _row_accesses(name, n)
            for n_accesses in (1, 2, row - 1, row, row + 1, 3 * row + 1):
                assert_same_trace(
                    getattr(tracegen, name)(n, n_accesses=n_accesses),
                    ref(n, n_accesses),
                )

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_jmp_layout(self, name):
        ref, scales, _ = GENERATORS[name]
        got = getattr(tracegen, name)(scales[1], n_accesses=300_001, jmp_layout=_JMPS)
        assert_same_trace(got, ref(scales[1], 300_001, jmp_layout=_JMPS))

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(sorted(GENERATORS)),
           size=st.integers(min_value=0, max_value=3000),
           n_accesses=st.integers(min_value=1, max_value=200_000))
    def test_drawn_sizes(self, name, size, n_accesses):
        ref, _, minimum = GENERATORS[name]
        n = minimum + size
        assert_same_trace(getattr(tracegen, name)(n, n_accesses=n_accesses),
                          ref(n, n_accesses))


# ----------------------------------------------------------------------
# window statistics
# ----------------------------------------------------------------------
windows = st.one_of(
    hnp.arrays(np.int64, st.integers(min_value=0, max_value=400),
               elements=st.integers(min_value=-(1 << 20), max_value=1 << 20)),
    # a small pool of addresses: lines re-touched many times
    hnp.arrays(np.int64, st.integers(min_value=0, max_value=400),
               elements=st.integers(min_value=-300, max_value=300)),
)


class TestWindowStatsEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(addresses=windows, granularity=st.sampled_from((1, 64, 4096)),
           min_accesses=st.integers(min_value=1, max_value=4))
    def test_drawn_windows(self, addresses, granularity, min_accesses):
        want = ref_window_stats(addresses, granularity, min_accesses)
        assert window_stats(addresses, granularity, min_accesses) == want
        assert window_stats(addresses.tolist(), granularity, min_accesses) == want

    def test_empty_window(self):
        assert window_stats([]) == ref_window_stats([]) == WindowStats(0, 0, 0, 0.0)

    def test_does_not_modify_the_window(self):
        addresses = np.array([640, 0, 64, 0, -64], dtype=np.int64)
        window_stats(addresses, granularity_bytes=1)
        assert addresses.tolist() == [640, 0, 64, 0, -64]

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_figure12_windows(self, name):
        _, scales, _ = GENERATORS[name]
        trace = getattr(tracegen, name)(scales[-1], n_accesses=2_000_000)
        profile = sample_windows(trace, 1_000_000)
        assert list(profile.windows) == [
            ref_window_stats(w) for w in trace.windows(1_000_000)
        ]


# ----------------------------------------------------------------------
# the counting path: window_stats counts a window in an array indexed by
# line when its line span is at most DENSE_SPAN_PER_ACCESS slots per
# access, and sorts it otherwise; both paths must equal np.unique's counts
# ----------------------------------------------------------------------
import tracemalloc  # noqa: E402

from repro.mem import working_set  # noqa: E402


def _window_with_span(n: int, span: int) -> np.ndarray:
    """``n`` line addresses whose lowest and highest line are ``span`` apart."""
    rng = np.random.default_rng(span)
    lines = np.concatenate(([0, span], rng.integers(0, span + 1, n - 2)))
    return (lines - 12_345) * 64 + rng.integers(0, 64, n)


class TestCountingPath:
    @pytest.mark.parametrize("n", [2, 3, 1000])
    @pytest.mark.parametrize("extra, counted", [(-1, True), (0, True), (1, False)])
    def test_span_just_under_at_and_over_the_bound(self, monkeypatch, n, extra,
                                                   counted):
        addresses = _window_with_span(n, working_set.DENSE_SPAN_PER_ACCESS * n + extra)
        calls = []
        bincount = np.bincount

        def spy(*args, **kwargs):
            calls.append(args)
            return bincount(*args, **kwargs)

        monkeypatch.setattr(working_set.np, "bincount", spy)
        for min_accesses in (1, 2, 3):
            assert (window_stats(addresses, 64, min_accesses)
                    == ref_window_stats(addresses, 64, min_accesses))
        assert bool(calls) is counted

    def test_window_spanning_all_of_int64(self):
        # at granularity 1 the span is 2**64 - 1 lines: taken in int64 it
        # would wrap to -1, pass the bound, and hand bincount negative lines
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        for addresses in ([lo, hi], [hi, lo, lo, 0, hi, hi]):
            addresses = np.array(addresses, dtype=np.int64)
            assert window_stats(addresses, 1) == ref_window_stats(addresses, 1)

    def test_sparse_window_sorts_without_the_counting_array(self):
        # two lines 2**24 apart: a counting array would take 128 MiB
        addresses = np.array([0, (1 << 24) * 64, 0], dtype=np.int64)
        tracemalloc.start()
        try:
            got = window_stats(addresses)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == ref_window_stats(addresses)
        assert peak < 1 << 20

    def test_phased_trace_windows_across_regions(self):
        # phased_trace re-bases each phase 2**40 bytes apart, so the window
        # that straddles two phases takes the sort path
        trace = tracegen.phased_trace(
            [("blocked", 64 * 1024, 4), ("stream", 1 << 20, 1)],
            accesses_per_phase=150_000,
        )
        assert list(sample_windows(trace, 300_000).windows) == [
            ref_window_stats(w) for w in trace.windows(300_000)
        ]
