"""Tests of the driver's stats helper: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import (  # noqa: E402
    MISS,
    crossing_rate,
    percentile,
    spread,
    summarize,
    supported_percentile,
)


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100

    def test_order_does_not_matter(self):
        assert percentile([3, 1, 2], 50) == percentile([1, 2, 3], 50) == 2

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_misses_reach_the_tail(self):
        values = [1.0] * 98 + [MISS] * 2
        assert percentile(values, 99) == MISS
        assert percentile(values, 98) == 1.0


class TestSupportedPercentile:
    @pytest.mark.parametrize("n, q", [
        (10000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0),
        (100, 90.0), (40, 75.0), (39, None), (0, None),
    ])
    def test_ten_samples_beyond(self, n, q):
        assert supported_percentile(n) == q
        if q is not None:
            assert round(n * (100 - q) / 100, 6) >= 10


class TestSummarize:
    def test_reports_count_median_and_tail(self):
        s = summarize(float(i) for i in range(1, 1001))
        assert (s.n, s.median, s.tail_q, s.tail) == (1000, 500.0, 99.0, 990.0)
        assert "n=1000" in s.describe()

    def test_small_sample_has_no_tail(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.tail_q is None and s.tail is None
        assert s.median == 2.0

    def test_empty(self):
        s = summarize([])
        assert s.n == 0 and math.isnan(s.median)
        assert s.describe() == "n=0"

    def test_failed_calls_count_against_the_sample(self):
        s = summarize([1.0] * 985 + [MISS] * 15)
        assert s.n == 1000
        assert s.tail == MISS


class TestSpread:
    def test_interquartile_share_of_median(self):
        assert spread([10.0] * 10) == 0.0
        values = [9.0, 9.5, 10.0, 10.5, 11.0]
        assert spread(values) == pytest.approx((10.75 - 9.25) / 10.0)

    def test_single_value(self):
        assert spread([3.0]) == 0.0


class TestCrossingRate:
    def test_interpolates_between_pass_and_fail(self):
        steps = [(100, 2.0, False), (200, 4.0, False), (300, 14.0, False)]
        # limit 10 lies 60 % of the way from 4 ms to 14 ms
        assert crossing_rate(steps, 10.0) == pytest.approx(260.0)

    def test_refused_calls_fail_the_step(self):
        steps = [(100, 2.0, False), (200, MISS, False)]
        rate = crossing_rate(steps, 10.0)
        assert 100 <= rate < 200

    def test_growing_backlog_fails_the_step(self):
        steps = [(100, 2.0, False), (200, 3.0, True)]
        rate = crossing_rate(steps, 10.0)
        assert 100 <= rate < 200

    def test_first_step_failing_gives_none(self):
        assert crossing_rate([(100, 50.0, False)], 10.0) is None

    def test_no_failure_gives_the_last_rate(self):
        assert crossing_rate([(100, 1.0, False), (200, 2.0, False)], 10.0) == 200

    def test_monotone_in_the_failing_latency(self):
        low = crossing_rate([(100, 2.0, False), (200, 12.0, False)], 10.0)
        high = crossing_rate([(100, 2.0, False), (200, 30.0, False)], 10.0)
        assert low > high
