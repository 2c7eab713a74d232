"""Online working-set-size estimation (closing the loop on §4.4).

The paper's profiler fits ``wss = a + b·ln(input)`` *offline* over the
first three input scales (:mod:`repro.profiler.regression`).  The serving
layer, however, admits progress periods on whatever demand the client
*declares* — and clients lie, both ways.  This module reuses the same
logarithmic model online: every completed period contributes an
``(declared, observed)`` sample, and once a key has enough history the
estimator predicts the true working set from the declared demand (the
declared size plays the role of the profiler's "input size": it is the
only a-priori signal of scale the service gets).

Design points:

* **Per-key state.**  Keys are ``(client_id, sharing_key-or-label)``
  tuples; a working set is a property of the code phase, not of a single
  connection, so anonymous sessions share the ``""`` client bucket.
* **Ring-buffered history.**  Only the newest ``history`` samples per key
  are kept, so drifting workloads re-learn and memory stays bounded.
* **One cached closed-form fit per key.**  The least-squares line over
  the ring is computed in pure Python on the first prediction after an
  ``observe`` and reused until the next one; a request evaluates one
  ``math.log``, and a refit none (each sample keeps its
  ``ln(declared)``).  The fit is a function of the ring alone (no running
  sums), so a clone re-fed from :meth:`~OnlineWssEstimator.export_samples`
  predicts the same bytes.  Against the profiler's
  :func:`~repro.profiler.regression.fit_log_regression` it is equal on
  rings with one declared size and within one byte when the ring's
  ``ln(declared)`` spread is at least 1e-3 and its observed sizes are
  at most 16 MiB (``tests/predict/test_closed_form_fit.py``).
* **Minimum-sample and confidence gates.**  Below ``min_samples``
  observations — or while recent predictions have mostly fallen outside
  the error band — ``predict`` returns ``None`` and the caller falls back
  to the declared demand.
* **Placement hints re-score only what changed.**  Each key keeps the
  value it last contributed to its client's ``hello`` hint; ``observe``
  and ``note_error`` mark it stale, and a hint re-scores the stale keys
  alone.
* **Bounded predictions.**  The regression output is clamped to the
  ``[min(observed), max(observed)]`` range of the current window: a
  log-curve extrapolated far outside its support is noise, and the clamp
  also makes predictions provably bounded and monotone-preserving (the
  property tests rely on this).

The estimator is deliberately transport-free: the admission service owns
journaling and metric emission.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

__all__ = ["OnlineWssEstimator", "EstimatorKey"]

#: (client_id, sharing_key-or-label) — see module docstring.
EstimatorKey = Tuple[str, str]

#: one key's cached model: (a, b, lo, hi) — ``a + b·ln(declared)``
#: clamped to the ring's observed range ``[lo, hi]``
_Fit = Tuple[float, float, int, int]

#: one ring sample: (declared, observed, ln(declared))
_Sample = Tuple[int, int, float]

#: a key's hint value before its first scoring, and after a change
_STALE = object()


def _fit_ring(ring: Deque[_Sample]) -> _Fit:
    """Least-squares ``wss = a + b·ln(declared)`` over one ring.

    A ring whose ``ln(declared)`` spread is within
    ``fit_log_regression``'s degeneracy threshold gets that function's
    flat line through the mean; the mean of integer samples is exact.
    """
    n = len(ring)
    ts = [t for _, _, t in ring]
    ys = [y for _, y, _ in ring]
    mean_t = sum(ts) / n
    mean_y = sum(ys) / n
    b = 0.0
    if max(ts) - min(ts) > 1e-12 * max(1.0, abs(ts[0])):
        stt = sty = 0.0
        for t, y in zip(ts, ys):
            dt = t - mean_t
            stt += dt * dt
            sty += dt * (y - mean_y)
        b = sty / stt
    return mean_y - b * mean_t, b, min(ys), max(ys)


class OnlineWssEstimator:
    """Incremental per-key ``wss = a + b·ln(declared)`` estimator."""

    def __init__(
        self,
        history: int = 32,
        min_samples: int = 3,
        error_band: float = 0.25,
        confidence_window: int = 8,
        min_confidence: float = 0.5,
    ) -> None:
        if history < 2:
            raise ValueError("history must be >= 2")
        if min_samples < 2:
            raise ValueError("min_samples must be >= 2 (regression needs 2 points)")
        if min_samples > history:
            raise ValueError(
                f"min_samples ({min_samples}) must be <= history ({history}): "
                "a ring that short never reaches the sample gate"
            )
        if error_band <= 0:
            raise ValueError("error_band must be positive")
        if confidence_window < 1:
            raise ValueError("confidence_window must be >= 1")
        self.history = history
        self.min_samples = min_samples
        self.error_band = error_band
        self.confidence_window = confidence_window
        self.min_confidence = min_confidence
        self._samples: Dict[EstimatorKey, Deque[_Sample]] = {}
        #: rolling record of recent |relative error| per key, fed back by
        #: the misprediction detector via note_error()
        self._errors: Dict[EstimatorKey, Deque[float]] = {}
        #: client id -> {key: newest declared demand that got a
        #: prediction} — the input to hello placement hints
        self._last_declared: Dict[str, Dict[EstimatorKey, int]] = {}
        #: each hinted key's confident value at its newest declared demand
        #: (``None``: not confident); absent while stale
        self._hints: Dict[EstimatorKey, Optional[int]] = {}
        #: cached fit per key, dropped by observe()
        self._fits: Dict[EstimatorKey, _Fit] = {}

    # ------------------------------------------------------------------ ingest

    def observe(self, key: EstimatorKey, declared_bytes: int, observed_bytes: int) -> None:
        """Record one completed period's (declared, observed) demand pair.

        Before the sample is absorbed, the model trained on the *prior*
        samples is scored against it (prequential evaluation) and the
        error feeds the confidence gate.  Scoring the model's own
        prediction — not the admission decision — is what lets confidence
        recover after a drift: the admission error stays large exactly
        while predictions are suppressed, so gating on it would deadlock.
        """
        if declared_bytes <= 0 or observed_bytes <= 0:
            return  # zero-demand periods carry no working-set information
        prior = self._predict_value(key, int(declared_bytes))
        if prior is not None:
            self.note_error(key, (prior - observed_bytes) / observed_bytes)
        ring = self._samples.get(key)
        if ring is None:
            ring = self._samples[key] = deque(maxlen=self.history)
        declared = int(declared_bytes)
        ring.append((declared, int(observed_bytes), math.log(declared)))
        self._fits.pop(key, None)
        self._hints.pop(key, None)

    def note_error(self, key: EstimatorKey, rel_error: float) -> None:
        """Feed back a prediction's relative error (from the detector)."""
        ring = self._errors.get(key)
        if ring is None:
            ring = self._errors[key] = deque(maxlen=self.confidence_window)
        ring.append(abs(rel_error))
        self._hints.pop(key, None)

    # ----------------------------------------------------------------- predict

    def sample_count(self, key: EstimatorKey) -> int:
        ring = self._samples.get(key)
        return len(ring) if ring else 0

    def confidence(self, key: EstimatorKey) -> float:
        """Fraction of recently-observed errors inside the error band.

        1.0 when no feedback has arrived yet — a fresh model is trusted
        until the detector says otherwise.
        """
        ring = self._errors.get(key)
        if not ring:
            return 1.0
        within = sum(1 for e in ring if e <= self.error_band)
        return within / len(ring)

    def predict(self, key: EstimatorKey, declared_bytes: int) -> Optional[int]:
        """Predicted working-set bytes, or ``None`` → use the declared demand.

        ``None`` is returned below the minimum-sample gate, below the
        confidence gate, or for non-positive declared demands.
        """
        if declared_bytes <= 0:
            return None
        declared = int(declared_bytes)
        value = self._confident_value(key, declared)
        if value is not None:
            self._last_declared.setdefault(key[0], {})[key] = declared
            self._hints[key] = value
        return value

    def _confident_value(
        self, key: EstimatorKey, declared_bytes: int
    ) -> Optional[int]:
        if self.confidence(key) < self.min_confidence:
            return None
        return self._predict_value(key, declared_bytes)

    def _predict_value(
        self, key: EstimatorKey, declared_bytes: int
    ) -> Optional[int]:
        """Model output without the confidence gate (also the self-score
        path in :meth:`observe`, which must bypass that gate)."""
        fit = self._fits.get(key)
        if fit is None:
            ring = self._samples.get(key)
            if ring is None or len(ring) < self.min_samples:
                return None
            fit = self._fits[key] = _fit_ring(ring)
        a, b, lo, hi = fit
        value = a + b * math.log(declared_bytes)
        return max(1, int(round(min(max(value, lo), hi))))

    def predicted_for_client(self, client_id: str) -> Optional[int]:
        """Largest confident prediction across a client's keys.

        Feeds the ``hello`` reply's placement hint: a frontend placing
        this client wants its peak expected footprint.  Each key is
        evaluated at the newest declared demand it was predicted for; only
        keys observed or scored since their last evaluation are
        re-evaluated.
        """
        hints = self._hints
        best: Optional[int] = None
        for key, declared in self._last_declared.get(client_id, {}).items():
            value = hints.get(key, _STALE)
            if value is _STALE:
                value = hints[key] = self._confident_value(key, declared)
            if value is not None and (best is None or value > best):
                best = value
        return best

    # ------------------------------------------------------------ persistence

    def export_samples(self) -> Iterator[Tuple[EstimatorKey, int, int]]:
        """All retained samples in per-key insertion order (for snapshots)."""
        for key, ring in self._samples.items():
            for declared, observed, _ in ring:
                yield key, declared, observed

    def load_samples(
        self, samples: List[Tuple[EstimatorKey, int, int]]
    ) -> None:
        """Re-feed journaled samples (replay order preserves recency)."""
        for key, declared, observed in samples:
            self.observe(tuple(key), declared, observed)  # type: ignore[arg-type]
