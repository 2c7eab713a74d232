"""The estimator's closed-form fit against the profiler's numpy fit.

The reference is the profiler's numpy path: ``fit_log_regression`` over
the key's ring, evaluated at the declared demand, clamped to the ring's
observed range and rounded to whole bytes.  The two must agree:

* on rings with one declared size, exactly: both take the flat line
  through the mean, and a mean of integers below 2**53 is exact;
* on rings whose ``ln(declared)`` spread is at least 1e-3, within one
  byte (half-integer rounding), for observed working sets up to 16 MiB,
  above the Table-1 LLC's 15 MiB.  ``np.polyfit``'s own error on a
  narrow ring grows like ``(ln x / spread)**2 · range(observed)``, so
  past that size the reference itself drifts by more than a byte.

Rings with a spread between 0 and 1e-3 are left out: both paths are
ill-conditioned there and only the clamp bounds them.  A prediction is
checked after every observe, so a stale cached fit would show, and under
the estimator's sample and confidence gates.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.predict import OnlineWssEstimator
from repro.profiler.regression import fit_log_regression

KEY = ("client", "phase")


def reference_value(ring, declared):
    fit = fit_log_regression(
        [float(x) for x, _ in ring], [float(y) for _, y in ring]
    )
    lo = min(y for _, y in ring)
    hi = max(y for _, y in ring)
    value = float(fit.predict(float(declared)))
    return max(1, int(round(min(max(value, float(lo)), float(hi)))))


def log_spread(ring):
    return math.log(max(x for x, _ in ring)) - math.log(min(x for x, _ in ring))


def predictions(est, samples, queries, distrust):
    """Observe each sample, then predict one query against its reference.

    After the samples whose index is in ``distrust``, a full confidence
    window of bad errors pushes the key under the confidence gate.
    Yields ``(prediction, reference, ring)`` for every query that passes
    both gates, and checks that every other query returns ``None``.
    """
    seen = []
    for i, (declared, observed) in enumerate(samples):
        est.observe(KEY, declared, observed)
        seen.append((declared, observed))
        if i in distrust:
            for _ in range(est.confidence_window):
                est.note_error(KEY, 10.0)
        ring = seen[-est.history:]
        query = queries[i % len(queries)]
        got = est.predict(KEY, query)
        gated = (
            len(ring) < est.min_samples
            or est.confidence(KEY) < est.min_confidence
        )
        if gated:
            assert got is None
        else:
            yield got, reference_value(ring, query), ring


def estimator(draw):
    min_samples = draw(st.integers(min_value=2, max_value=6))
    return OnlineWssEstimator(
        history=draw(st.integers(min_value=min_samples, max_value=16)),
        min_samples=min_samples,
        confidence_window=4,
    )


QUERIES = st.lists(st.integers(min_value=1, max_value=2**41),
                   min_size=1, max_size=8)
DISTRUST = st.sets(st.integers(min_value=0, max_value=39), max_size=4)


def declared_sizes(draw):
    """Declared sizes within a relative width below one base size; the
    narrowest width puts rings on both sides of the 1e-3 spread."""
    base = draw(st.integers(min_value=2**10, max_value=2**40))
    width = draw(st.sampled_from([0.002, 0.02, 1.0]))
    return st.integers(min_value=max(1, int(base * (1 - width))),
                       max_value=base)


class TestAgainstNumpyFit:
    @given(st.data(), st.integers(min_value=1, max_value=2**40),
           st.lists(st.integers(min_value=1, max_value=2**40),
                    min_size=1, max_size=40),
           QUERIES, DISTRUST)
    @settings(max_examples=200, deadline=None)
    def test_one_declared_size_predicts_equal_bytes(
        self, data, declared, observed, queries, distrust
    ):
        est = estimator(data.draw)
        samples = [(declared, y) for y in observed]
        for got, want, _ in predictions(est, samples, queries, distrust):
            assert got == want

    @given(st.data(), QUERIES, DISTRUST)
    @settings(max_examples=300, deadline=None)
    def test_spread_rings_predict_within_one_byte(
        self, data, queries, distrust
    ):
        est = estimator(data.draw)
        samples = data.draw(st.lists(
            st.tuples(declared_sizes(data.draw),
                      st.integers(min_value=1, max_value=2**24)),
            min_size=1, max_size=40,
        ))
        for got, want, ring in predictions(est, samples, queries, distrust):
            spread = log_spread(ring)
            if spread == 0:
                assert got == want
            elif spread >= 1e-3:
                assert abs(got - want) <= 1, (ring, got, want)
