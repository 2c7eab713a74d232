"""The figure-12 trace path off the figure-12 inputs.

Every granularity the figure-12 chain (and ``test_tracegen_equivalence``)
uses is a power of two, and its stencil centres never reach past their
region.  These tests draw what it does not: ``window_stats`` over
granularities that are not powers of two, on the counting and on the
sorting path, and ``_stencil`` centres at the region's edges.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProfilerError
from repro.mem import working_set
from repro.mem.address import AddressSpace
from repro.mem.working_set import window_stats
from repro.workloads.tracegen import _stencil

from .test_tracegen_equivalence import ref_window_stats


@st.composite
def line_windows(draw, dense: bool):
    """Line numbers of one window whose span takes the requested path."""
    bound = working_set.DENSE_SPAN_PER_ACCESS
    n = draw(st.integers(min_value=1 if dense else 2, max_value=300))
    base = draw(st.integers(min_value=-(1 << 30), max_value=1 << 30))
    if dense:
        # a narrow pool re-touches lines; the widest is the bound itself
        width = draw(st.integers(min_value=0, max_value=bound * n))
        offsets = draw(st.lists(st.integers(min_value=0, max_value=width),
                                min_size=n, max_size=n))
    else:
        far = bound * n + 1 + draw(st.integers(min_value=0, max_value=1 << 20))
        offsets = [0, far] + draw(st.lists(
            st.integers(min_value=0, max_value=far), min_size=n - 2,
            max_size=n - 2))
    return base + np.array(draw(st.permutations(offsets)), dtype=np.int64)


class TestGranularityNotAPowerOfTwo:
    @pytest.mark.parametrize("dense", [True, False], ids=["counted", "sorted"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           granularity=st.sampled_from((3, 48, 96, 1000, 4097)),
           min_accesses=st.integers(min_value=1, max_value=4))
    def test_equals_the_unique_reference(self, dense, data, granularity,
                                         min_accesses):
        lines = data.draw(line_windows(dense))
        within = data.draw(st.lists(
            st.integers(min_value=0, max_value=granularity - 1),
            min_size=lines.size, max_size=lines.size))
        addresses = lines * granularity + np.array(within, dtype=np.int64)
        with mock.patch.object(working_set.np, "bincount",
                               wraps=np.bincount) as bincount:
            assert (window_stats(addresses, granularity, min_accesses)
                    == ref_window_stats(addresses, granularity, min_accesses))
        assert bincount.called is dense


class TestStencilRange:
    DIM = 6
    ROW_BYTES = DIM * 8

    def _grid(self):
        return AddressSpace().alloc("grid", self.DIM * self.DIM * 8)

    def test_interior_rows_equal_the_region_addresses(self):
        # rows 1..DIM-2 as the ocean generators lay them out: the first
        # point's north neighbour is offset 0, the last point's south
        # neighbour is size - 8
        grid = self._grid()
        center = (np.arange(1, self.DIM - 1, dtype=np.int64)[:, None] * self.DIM
                  + np.arange(self.DIM, dtype=np.int64)) * 8
        got = _stencil(grid, center, self.ROW_BYTES)
        want = np.stack([grid.addr(center + delta) for delta in
                         (0, -self.ROW_BYTES, self.ROW_BYTES, -8, 8)],
                        axis=-1).reshape(-1)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("offset", [ROW_BYTES - 8, DIM * DIM * 8 - ROW_BYTES],
                             ids=["north-at-minus-8", "south-at-size"])
    def test_a_neighbour_outside_the_region_is_refused(self, offset):
        grid = self._grid()
        with pytest.raises(ProfilerError, match="grid"):
            _stencil(grid, np.array([[offset]], dtype=np.int64), self.ROW_BYTES)

    def test_empty_centre(self):
        grid = self._grid()
        center = np.empty((0, self.DIM), dtype=np.int64)
        got = _stencil(grid, center, self.ROW_BYTES)
        assert got.size == 0 and got.dtype == np.int64
