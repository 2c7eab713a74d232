"""Timing statistics for the benchmark driver.

Every timing is reported as a median plus the highest percentile that
still has at least ten samples beyond it, together with the sample count.
Failed or refused calls count against the number attempted; in a latency
search they count as misses (an infinite latency).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

__all__ = [
    "MISS",
    "Summary",
    "percentile",
    "supported_percentile",
    "summarize",
    "spread",
    "crossing_rate",
]

#: the latency recorded for a refused or failed call: it misses any limit
MISS = math.inf

#: candidate tail percentiles, highest first
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)

#: samples that must lie beyond a reported percentile
_MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``, nearest-rank.

    Nearest-rank never interpolates toward an infinite miss, so a tail that
    contains refused calls reads as ``inf`` exactly when the refused calls
    reach into it.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(n: int) -> Optional[float]:
    """The highest tail percentile with >= 10 of ``n`` samples beyond it."""
    for q in _TAILS:
        if round(n * (100.0 - q) / 100.0, 6) >= _MIN_BEYOND:
            return q
    return None


@dataclass(frozen=True)
class Summary:
    """A timing sample: count, median, and its best-supported tail."""

    n: int
    median: float
    tail_q: Optional[float]
    tail: Optional[float]

    def describe(self, unit: str = "ms") -> str:
        if self.n == 0:
            return "n=0"
        text = f"p50={self.median:.4g} {unit}"
        if self.tail_q is not None:
            text += f"  p{self.tail_q:g}={self.tail:.4g} {unit}"
        return f"{text}  (n={self.n})"


def summarize(values: Iterable[float]) -> Summary:
    """Median plus the highest tail percentile the sample supports."""
    sample: List[float] = list(values)
    if not sample:
        return Summary(0, math.nan, None, None)
    q = supported_percentile(len(sample))
    return Summary(
        n=len(sample),
        median=percentile(sample, 50.0),
        tail_q=q,
        tail=None if q is None else percentile(sample, q),
    )


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


def crossing_rate(steps: Sequence[tuple], limit: float) -> Optional[float]:
    """Highest offered rate whose tail latency stays under ``limit``.

    ``steps`` are ``(rate, tail_latency, backlog_grew)`` in increasing rate
    order.  The answer interpolates linearly between the last passing step
    and the first failing one, so it moves smoothly with the latency curve
    instead of snapping to the rate ladder.  ``None`` when even the first
    step fails; the last rate when none fails.
    """
    last_pass = None
    for rate, tail, grew in steps:
        ok = tail < limit and not grew
        if ok:
            last_pass = (rate, tail)
            continue
        if last_pass is None:
            return None
        r0, t0 = last_pass
        if grew or not math.isfinite(tail) or tail <= t0:
            # The backlog ran away: the knee sits just past the last pass,
            # placed by how much latency headroom that step had left.
            frac = max(0.0, min(1.0, (limit - t0) / limit))
        else:
            frac = (limit - t0) / (tail - t0)
        return r0 + frac * (rate - r0)
    return None if last_pass is None else last_pass[0]
