"""Cross-validation of the analytical LLC model against trace simulation.

The analytical contention model (DESIGN.md §5) drives every timing and
energy number; the trace-driven set-associative simulator is ground truth
for what LRU hardware does.  This module sweeps the oversubscription ratio
``W/C`` and measures, for each point,

* the trace simulator's hit rate for co-running loops of equal working
  sets, and
* the analytical hot fraction ``(share/wss) ** γ``,

so their agreement (and the γ=1 model's disagreement) can be seen and
asserted.  Used by ``benchmarks/bench_model_validation.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import CacheConfig
from ..mem.cache import Cache
from ..mem.contention import LlcDemand, SharedLlcModel

__all__ = ["ValidationPoint", "validate_hit_rates"]


@dataclass(frozen=True)
class ValidationPoint:
    """One oversubscription ratio's measured vs predicted hit rates."""

    oversubscription: float  # total demand / capacity
    n_streams: int
    measured_hit_rate: float
    predicted_gamma: float  # committed model (gamma as configured)
    predicted_linear: float  # gamma = 1 (proportional)


def _loop_trace(wss_bytes: int, sweeps: int, base: int, line: int = 64) -> np.ndarray:
    lines = max(1, wss_bytes // line)
    one = np.arange(lines, dtype=np.int64) * line + base
    return np.tile(one, sweeps)


def _interleave(traces: Sequence[np.ndarray]) -> np.ndarray:
    n = min(len(t) for t in traces)
    return np.stack([t[:n] for t in traces], axis=1).reshape(-1)


def validate_hit_rates(
    ratios: Sequence[float] = (0.5, 1.0, 1.5, 2.0, 3.0),
    n_streams: int = 2,
    capacity_bytes: int = 64 * 1024,
    gamma: float = 2.0,
    sweeps: int = 24,
) -> list[ValidationPoint]:
    """Measure and predict per-stream hit rates across W/C ratios.

    Each point co-runs ``n_streams`` identical cyclic loops whose combined
    working set is ``ratio × capacity``; the subject stream's steady-state
    hit rate is measured after a warm-up quarter of the merged trace.
    """
    points = []
    for ratio in ratios:
        wss = int(capacity_bytes * ratio / n_streams)
        cache = Cache(
            CacheConfig("val", capacity_bytes, associativity=16, shared=True)
        )
        traces = [
            _loop_trace(wss, sweeps, base=(k << 34)) for k in range(n_streams)
        ]
        merged = _interleave(traces)
        split = len(merged) // 4
        cache.access_trace(merged[:split])
        hits = misses = 0
        for i, addr in enumerate(merged[split:].tolist()):
            hit = cache.access(addr)
            if i % n_streams == 0:
                if hit:
                    hits += 1
                else:
                    misses += 1
        measured = hits / max(1, hits + misses)
        demand = LlcDemand(wss_bytes=wss, reuse=1.0)
        others = [demand] * (n_streams - 1)
        h_gamma = SharedLlcModel(capacity_bytes, gamma=gamma).hot_fraction(
            demand, others
        )
        h_linear = SharedLlcModel(capacity_bytes, gamma=1.0).hot_fraction(
            demand, others
        )
        points.append(
            ValidationPoint(
                oversubscription=ratio,
                n_streams=n_streams,
                measured_hit_rate=measured,
                predicted_gamma=h_gamma,
                predicted_linear=h_linear,
            )
        )
    return points
