"""Percentiles and latency summaries of plain sample lists, in pure Python.

The load generator's client-side summaries (:mod:`repro.serve.loadgen`)
and the chaos reports use them, and :mod:`repro.experiments.metrics`
re-exports them.  The module imports nothing beyond the standard library,
so the load generator and the chaos driver run without numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

__all__ = ["percentile", "LatencySummary", "summarize_samples"]


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100) with linear interpolation.

    Matches numpy's default ("linear") definition without requiring the
    input to be a numpy array; an empty sample set yields ``nan``.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not samples:
        return math.nan
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


@dataclass(frozen=True)
class LatencySummary:
    """Count / mean / tail percentiles of one latency-like sample set."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    max: float

    def describe(self, unit: str = "s", scale: float = 1.0) -> str:
        if self.count == 0:
            return "no samples"
        return (
            f"n={self.count}  mean={self.mean * scale:.3f}{unit}  "
            f"p50={self.p50 * scale:.3f}{unit}  p90={self.p90 * scale:.3f}{unit}  "
            f"p99={self.p99 * scale:.3f}{unit}  max={self.max * scale:.3f}{unit}"
        )

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "max": self.max,
        }


def summarize_samples(samples: Sequence[float]) -> LatencySummary:
    """Build a :class:`LatencySummary` (all-``nan`` stats when empty)."""
    if not samples:
        return LatencySummary(0, math.nan, math.nan, math.nan, math.nan, math.nan)
    ordered = sorted(samples)
    return LatencySummary(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        p50=percentile(ordered, 50.0),
        p90=percentile(ordered, 90.0),
        p99=percentile(ordered, 99.0),
        max=float(ordered[-1]),
    )
