"""Footprint / WSS / reuse-ratio computation tests (§2.4 window stats)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.progress_period import ReuseLevel
from repro.errors import ProfilerError
from repro.mem.working_set import WindowStats, reuse_level_of_ratio, window_stats


class TestWindowStats:
    def test_empty_window(self):
        s = window_stats([])
        assert s.n_accesses == 0
        assert s.footprint_bytes == 0
        assert s.wss_bytes == 0
        assert s.reuse_ratio == 0.0

    def test_footprint_counts_unique_lines(self):
        # 4 accesses, 2 distinct lines
        s = window_stats([0, 8, 64, 72], granularity_bytes=64)
        assert s.footprint_bytes == 2 * 64
        assert s.n_accesses == 4

    def test_wss_requires_min_accesses(self):
        # line 0 touched twice, line 1 once
        s = window_stats([0, 0, 64], min_accesses=2)
        assert s.wss_bytes == 64
        assert s.footprint_bytes == 128

    def test_streaming_has_unit_reuse_ratio(self):
        s = window_stats([i * 64 for i in range(100)])
        assert s.reuse_ratio == pytest.approx(1.0)
        assert s.wss_bytes == 0  # nothing touched twice

    def test_hot_loop_has_high_reuse(self):
        s = window_stats([0, 64, 128] * 50)
        assert s.reuse_ratio == pytest.approx(50.0)
        assert s.wss_bytes == 3 * 64

    def test_custom_granularity(self):
        s = window_stats([0, 100, 200], granularity_bytes=256)
        assert s.footprint_bytes == 256  # all in one 256-byte block
        assert s.wss_bytes == 256

    @pytest.mark.parametrize("granularity", [0, -64])
    def test_nonpositive_granularity_rejected(self, granularity):
        # -64 used to give a negative footprint; 0 divided by zero
        with pytest.raises(ProfilerError, match="granularity"):
            window_stats([0, 64, 128, 64], granularity_bytes=granularity)

    @pytest.mark.parametrize("min_accesses", [0, -1])
    def test_nonpositive_access_threshold_rejected(self, min_accesses):
        # used to count every line toward the working set
        with pytest.raises(ProfilerError, match="min_accesses"):
            window_stats([0, 64, 128, 64], min_accesses=min_accesses)

    @pytest.mark.parametrize("option", [
        # 64.0 raised a bare TypeError from numpy, 1.5 acted as 2, and True
        # as a 1-byte granularity or a threshold of 1
        {"granularity_bytes": 64.0}, {"granularity_bytes": True},
        {"granularity_bytes": "64"}, {"granularity_bytes": np.float64(64)},
        {"min_accesses": 1.5}, {"min_accesses": 2.0}, {"min_accesses": True},
    ])
    def test_non_integer_option_rejected(self, option):
        name = next(iter(option))
        with pytest.raises(ProfilerError, match=name):
            window_stats([0, 64, 128, 64], **option)

    @pytest.mark.parametrize("granularity", [np.int64(64), np.uint16(64)])
    def test_integer_options_give_python_ints(self, granularity):
        s = window_stats([0, 64, 128, 64], granularity, np.int32(2))
        assert s == WindowStats(4, 3 * 64, 64, 4 / 3)
        assert type(s.footprint_bytes) is int and type(s.wss_bytes) is int


class TestSimilarity:
    def make(self, wss, reuse):
        return WindowStats(n_accesses=100, footprint_bytes=wss, wss_bytes=wss, reuse_ratio=reuse)

    def test_identical_windows_similar(self):
        a = self.make(1000, 5.0)
        assert a.similar_to(a)

    def test_within_tolerance(self):
        assert self.make(1000, 5.0).similar_to(self.make(1200, 5.5), tolerance=0.25)

    def test_wss_outside_tolerance(self):
        assert not self.make(1000, 5.0).similar_to(self.make(2000, 5.0), tolerance=0.25)

    def test_reuse_outside_tolerance(self):
        assert not self.make(1000, 5.0).similar_to(self.make(1000, 10.0), tolerance=0.25)

    def test_symmetry(self):
        a, b = self.make(1000, 5.0), self.make(1300, 5.0)
        assert a.similar_to(b) == b.similar_to(a)

    @given(
        st.integers(min_value=0, max_value=10**9),
        st.floats(min_value=0, max_value=100),
    )
    def test_reflexive_property(self, wss, reuse):
        w = self.make(wss, reuse)
        assert w.similar_to(w)


class TestReuseLevels:
    @pytest.mark.parametrize(
        "ratio,level",
        [
            (1.0, ReuseLevel.LOW),
            (1.9, ReuseLevel.LOW),
            (2.0, ReuseLevel.MEDIUM),
            (7.9, ReuseLevel.MEDIUM),
            (8.0, ReuseLevel.HIGH),
            (50.0, ReuseLevel.HIGH),
        ],
    )
    def test_thresholds(self, ratio, level):
        assert reuse_level_of_ratio(ratio) is level

    def test_blas_archetypes(self):
        stream = window_stats([i * 64 for i in range(200)])
        blocked = window_stats([(i % 16) * 64 for i in range(200)])
        assert reuse_level_of_ratio(stream.reuse_ratio) is ReuseLevel.LOW
        assert reuse_level_of_ratio(blocked.reuse_ratio) is ReuseLevel.HIGH


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 24), max_size=300))
    def test_wss_never_exceeds_footprint(self, addrs):
        s = window_stats(addrs)
        assert s.wss_bytes <= s.footprint_bytes
        assert s.footprint_bytes <= max(1, s.n_accesses) * 64

    @given(st.lists(st.integers(min_value=0, max_value=1 << 24), min_size=1, max_size=300))
    def test_reuse_ratio_bounds(self, addrs):
        s = window_stats(addrs)
        assert 1.0 <= s.reuse_ratio <= len(addrs)
