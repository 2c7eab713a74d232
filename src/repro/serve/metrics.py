"""Live metrics for the admission-control service.

A small, dependency-free registry of the three classic instrument shapes:

* :class:`Counter` — monotonically increasing event counts,
* :class:`Gauge` — a point-in-time value, optionally backed by a callable
  so the registry samples live server state at snapshot time,
* :class:`Histogram` — log-bucketed latency/size distribution with
  *bounded* memory regardless of the number of observations (the server is
  long-running; storing raw samples would grow without bound).

The server dumps a snapshot through the ``stats`` verb and, when
``--metrics-json`` is given, to a flat file for scraping.  Percentiles are
interpolated inside the matching log bucket; the bucket growth factor of
1.25 bounds the relative error of any quantile to ~12 %, which is plenty
for the tail-latency comparisons the load generator reports (client-side
summaries use exact samples via
:func:`repro.latency.summarize_samples`).
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Any, Callable, Dict, Optional

from ..errors import ServeError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ServeError(f"counter {self.name}: cannot increase by {n}")
        self.value += n


class Gauge:
    """A point-in-time value; ``fn`` makes it live-sampled at snapshot."""

    def __init__(
        self, name: str, help: str = "", fn: Optional[Callable[[], float]] = None
    ) -> None:
        self.name = name
        self.help = help
        self.fn = fn
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def max(self, value: float) -> None:
        """Retain the high-water mark (peak gauges)."""
        if value > self._value:
            self._value = value

    @property
    def value(self) -> float:
        return float(self.fn()) if self.fn is not None else self._value


class Histogram:
    """Log-bucketed distribution with bounded memory.

    Bucket ``i`` covers ``[floor * growth**i, floor * growth**(i+1))``;
    values below ``floor`` (including exact zeros) land in a dedicated
    underflow bucket.  ``percentile`` interpolates linearly inside the
    winning bucket.
    """

    def __init__(
        self,
        name: str,
        help: str = "",
        floor: float = 1e-6,
        growth: float = 1.25,
        n_buckets: int = 128,
    ) -> None:
        if floor <= 0 or growth <= 1.0 or n_buckets < 1:
            raise ServeError(f"histogram {name}: invalid bucket geometry")
        self.name = name
        self.help = help
        self.floor = floor
        self.growth = growth
        self._log_growth = math.log(growth)
        self.buckets = [0] * (n_buckets + 1)  # +1: underflow bucket at index 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _index(self, value: float) -> int:
        if value < self.floor:
            return 0
        i = 1 + int(math.log(value / self.floor) / self._log_growth)
        return min(i, len(self.buckets) - 1)

    def _lower_bound(self, index: int) -> float:
        return 0.0 if index == 0 else self.floor * self.growth ** (index - 1)

    def _upper_bound(self, index: int) -> float:
        return self.floor * self.growth ** index

    def observe(self, value: float) -> None:
        if value < 0:
            raise ServeError(f"histogram {self.name}: negative observation {value}")
        self.buckets[self._index(value)] += 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (0–100); ``nan`` when empty."""
        if not 0.0 <= q <= 100.0:
            raise ServeError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return math.nan
        rank = (q / 100.0) * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            if seen + n >= rank:
                frac = (rank - seen) / n
                lo = max(self._lower_bound(i), self.min)
                hi = min(self._upper_bound(i), self.max)
                return lo + (hi - lo) * frac
            seen += n
        return self.max  # pragma: no cover — numeric edge

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": None if self.count == 0 else self.mean,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "p50": None if self.count == 0 else self.percentile(50.0),
            "p90": None if self.count == 0 else self.percentile(90.0),
            "p99": None if self.count == 0 else self.percentile(99.0),
        }


class MetricsRegistry:
    """Named instruments plus JSON snapshot/dump for the ``stats`` verb."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self.created_at = time.time()

    def _register(self, table: Dict[str, Any], instrument: Any) -> Any:
        if instrument.name in table:
            raise ServeError(f"metric {instrument.name!r} already registered")
        table[instrument.name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(self._counters, Counter(name, help))

    def gauge(
        self, name: str, help: str = "", fn: Optional[Callable[[], float]] = None
    ) -> Gauge:
        return self._register(self._gauges, Gauge(name, help, fn))

    def histogram(self, name: str, help: str = "", **kwargs: Any) -> Histogram:
        return self._register(self._histograms, Histogram(name, help, **kwargs))

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-serializable snapshot of every instrument."""
        return {
            "uptime_s": time.time() - self.created_at,
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.snapshot() for n, h in sorted(self._histograms.items())
            },
        }

    def dump_json(self, path: str) -> None:
        """Atomically write the current snapshot to a flat file."""
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
