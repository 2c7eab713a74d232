"""Online WSS estimator: unit behavior plus its contract properties.

The property tests pin the three guarantees the admission service builds
on: predictions are bounded by the observed window, monotone sample sets
yield monotone predictions, and the estimator is a pure function of its
sample history (determinism).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.predict import OnlineWssEstimator

KEY = ("client-1", "dgemm")


def feed(est, pairs, key=KEY):
    for declared, observed in pairs:
        est.observe(key, declared, observed)


class TestGates:
    def test_below_min_samples_returns_none(self):
        est = OnlineWssEstimator(min_samples=3)
        feed(est, [(100, 50), (200, 60)])
        assert est.predict(KEY, 100) is None

    def test_at_min_samples_predicts(self):
        est = OnlineWssEstimator(min_samples=3)
        feed(est, [(100, 50), (200, 60), (400, 70)])
        assert est.predict(KEY, 200) is not None

    def test_nonpositive_declared_returns_none(self):
        est = OnlineWssEstimator(min_samples=2)
        feed(est, [(100, 50), (200, 60)])
        assert est.predict(KEY, 0) is None
        assert est.predict(KEY, -5) is None

    def test_nonpositive_samples_ignored(self):
        est = OnlineWssEstimator(min_samples=2)
        est.observe(KEY, 0, 50)
        est.observe(KEY, 100, 0)
        assert est.sample_count(KEY) == 0

    def test_unknown_key_returns_none(self):
        assert OnlineWssEstimator().predict(("x", "y"), 100) is None

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            OnlineWssEstimator(history=1)
        with pytest.raises(ValueError):
            OnlineWssEstimator(min_samples=1)
        with pytest.raises(ValueError):
            OnlineWssEstimator(error_band=0.0)

    def test_min_samples_above_history_is_rejected(self):
        # a 4-sample ring never holds 8 samples: it would never predict
        with pytest.raises(ValueError, match="history"):
            OnlineWssEstimator(history=4, min_samples=8)
        est = OnlineWssEstimator(history=4, min_samples=4)
        feed(est, [(1000, 500)] * 4)
        assert est.predict(KEY, 1000) == 500

    def test_empty_confidence_window_is_rejected(self):
        # an empty window would hold no error and read 1.0 forever
        with pytest.raises(ValueError, match="confidence_window"):
            OnlineWssEstimator(confidence_window=0)


class TestLearning:
    def test_constant_liar_is_corrected(self):
        # a client declaring 2x its true working set converges onto the
        # truth once the window holds only (2w, w) pairs
        est = OnlineWssEstimator(min_samples=3)
        feed(est, [(2000, 1000)] * 4)
        assert est.predict(KEY, 2000) == 1000

    def test_log_curve_is_recovered(self):
        a, b = 1000.0, 300.0
        pairs = [(x, int(a + b * math.log(x))) for x in (512, 2048, 8192)]
        est = OnlineWssEstimator(min_samples=3)
        feed(est, pairs)
        expected = a + b * math.log(4096)
        assert est.predict(KEY, 4096) == pytest.approx(expected, rel=0.01)

    def test_keys_are_independent(self):
        est = OnlineWssEstimator(min_samples=2)
        feed(est, [(1000, 100)] * 3, key=("c1", "a"))
        feed(est, [(1000, 900)] * 3, key=("c1", "b"))
        assert est.predict(("c1", "a"), 1000) == 100
        assert est.predict(("c1", "b"), 1000) == 900

    def test_history_ring_forgets_old_samples(self):
        est = OnlineWssEstimator(history=4, min_samples=2,
                                 confidence_window=4)
        feed(est, [(1000, 2000)] * 4)  # old regime
        # enough new-regime samples to evict the ring AND displace the
        # transition errors from the confidence window
        feed(est, [(1000, 100)] * 8)
        assert est.sample_count(KEY) == 4
        assert est.predict(KEY, 1000) == 100


class TestConfidence:
    def test_fresh_model_is_trusted(self):
        assert OnlineWssEstimator().confidence(KEY) == 1.0

    def test_bad_feedback_suppresses_predictions(self):
        est = OnlineWssEstimator(min_samples=2, confidence_window=4)
        feed(est, [(1000, 500)] * 3)
        for _ in range(4):
            est.note_error(KEY, 5.0)
        assert est.confidence(KEY) == 0.0
        assert est.predict(KEY, 1000) is None

    def test_confidence_recovers_after_drift(self):
        # the regression-test for the gating deadlock: confidence is fed
        # by the model scoring itself on each incoming sample, so after a
        # drift the retrained model's small errors displace the large ones
        est = OnlineWssEstimator(
            history=4, min_samples=2, confidence_window=4
        )
        feed(est, [(1000, 100)] * 4)
        assert est.predict(KEY, 1000) == 100
        feed(est, [(1000, 800)] * 3)   # drift: errors blow the band
        assert est.predict(KEY, 1000) is None
        feed(est, [(1000, 800)] * 6)   # retrained + rescored
        assert est.predict(KEY, 1000) == 800


HINT_CLIENTS = ["", "a", "ab", "b"]
HINT_KEY = st.tuples(st.sampled_from(HINT_CLIENTS), st.sampled_from(["p", "q"]))
# (declared, observed) on one log curve, plus one outlier that costs
# confidence when the model scores itself on it
HINT_SAMPLE = st.sampled_from([(1000, 500), (2000, 700), (4000, 900),
                               (2000, 5000)])
HINT_PREDICT = st.tuples(st.just("predict"), HINT_KEY,
                         st.sampled_from([1000, 1500, 2000, 4000]))
# predicts are listed twice: they are what fills the hint index
HINT_OPS = st.lists(st.one_of(
    st.tuples(st.just("observe"), HINT_KEY,
              st.lists(HINT_SAMPLE, min_size=1, max_size=4)),
    HINT_PREDICT,
    HINT_PREDICT,
    st.tuples(st.just("distrust"), HINT_KEY),
), min_size=10, max_size=40)


class TestPlacementHint:
    def test_peak_confident_prediction_wins(self):
        est = OnlineWssEstimator(min_samples=2)
        feed(est, [(1000, 300)] * 3, key=("c1", "a"))
        feed(est, [(1000, 700)] * 3, key=("c1", "b"))
        assert est.predict(("c1", "a"), 1000) == 300
        assert est.predict(("c1", "b"), 1000) == 700
        assert est.predicted_for_client("c1") == 700
        assert est.predicted_for_client("other") is None

    @given(st.dictionaries(HINT_KEY, st.tuples(
               HINT_SAMPLE, st.integers(min_value=0, max_value=5))),
           HINT_OPS)
    @settings(max_examples=200, deadline=None)
    def test_hint_index_equals_a_brute_force_scan(self, warm, ops):
        # "a" is a prefix of "ab", and "" holds the anonymous sessions;
        # min_samples=3 keeps a key with a short warm-up below the gate
        est = OnlineWssEstimator(min_samples=3, confidence_window=4)
        for key, (sample, repeats) in warm.items():
            feed(est, [sample] * repeats, key=key)
        last = {}  # key -> newest declared demand that got a prediction
        for op, key, *arg in ops:
            if op == "observe":
                for declared, observed in arg[0]:
                    est.observe(key, declared, observed)
            elif op == "predict":
                if est.predict(key, arg[0]) is not None:
                    last[key] = arg[0]
            else:  # push the key under min_confidence
                for _ in range(est.confidence_window):
                    est.note_error(key, 10.0)
            for client in HINT_CLIENTS:
                hint = est.predicted_for_client(client)
                confident = [
                    value for value in (
                        est.predict(k, declared)
                        for k, declared in last.items() if k[0] == client
                    )
                    if value is not None
                ]
                assert hint == (max(confident) if confident else None)

    def test_hint_after_one_observe_rescores_one_key(self, monkeypatch):
        # a client with many keys: a hello after one observe re-scores
        # that key alone, and a hello after none re-scores nothing
        est = OnlineWssEstimator(min_samples=2)
        labels = [f"phase{i}" for i in range(27)]
        for i, label in enumerate(labels):
            feed(est, [(1000, 100 + i)] * 3, key=("c", label))
            assert est.predict(("c", label), 1000) == 100 + i
        scored = []
        real = OnlineWssEstimator._confident_value

        def spy(self, key, declared):
            scored.append(key)
            return real(self, key, declared)

        monkeypatch.setattr(OnlineWssEstimator, "_confident_value", spy)
        assert est.predicted_for_client("c") == 126
        assert scored == []
        est.observe(("c", "phase3"), 1000, 107)
        assert est.predicted_for_client("c") == 126
        assert scored == [("c", "phase3")]
        assert est.predict(("c", "phase3"), 1000) == 104
        scored.clear()
        for _ in range(est.confidence_window):
            est.note_error(("c", "phase26"), 10.0)
        assert est.predicted_for_client("c") == 125
        assert scored == [("c", "phase26")]


class TestPersistence:
    def test_export_load_roundtrip(self):
        est = OnlineWssEstimator(min_samples=2)
        feed(est, [(1000, 400), (2000, 500), (4000, 600)])
        clone = OnlineWssEstimator(min_samples=2)
        clone.load_samples(list(est.export_samples()))
        assert clone.predict(KEY, 3000) == est.predict(KEY, 3000)


# one (declared, observed) sample: declared >= 1 byte, observed positive
SAMPLE = st.tuples(
    st.integers(min_value=1, max_value=2**40),
    st.integers(min_value=1, max_value=2**40),
)


class TestProperties:
    @given(st.lists(SAMPLE, min_size=3, max_size=24),
           st.integers(min_value=1, max_value=2**41))
    @settings(max_examples=200)
    def test_prediction_bounded_by_observed_window(self, pairs, declared):
        est = OnlineWssEstimator(min_samples=3)
        feed(est, pairs)
        value = est.predict(KEY, declared)
        if value is not None:
            lo = min(y for _, y in pairs[-est.history:])
            hi = max(y for _, y in pairs[-est.history:])
            assert lo <= value <= hi

    @given(st.lists(SAMPLE, min_size=3, max_size=24),
           st.integers(min_value=1, max_value=2**41),
           st.integers(min_value=1, max_value=2**41))
    @settings(max_examples=200)
    def test_prediction_is_deterministic(self, pairs, d1, d2):
        one = OnlineWssEstimator(min_samples=3)
        two = OnlineWssEstimator(min_samples=3)
        feed(one, pairs)
        feed(two, pairs)
        assert one.predict(KEY, d1) == two.predict(KEY, d1)
        # repeated queries must not perturb the model either
        assert one.predict(KEY, d2) == two.predict(KEY, d2)
        assert one.predict(KEY, d1) == two.predict(KEY, d1)

    @given(
        st.lists(
            st.integers(min_value=1, max_value=2**40),
            min_size=3, max_size=16, unique=True,
        ),
        st.lists(st.integers(min_value=1, max_value=2**40),
                 min_size=3, max_size=16),
        st.integers(min_value=1, max_value=2**41),
        st.integers(min_value=1, max_value=2**41),
    )
    @settings(max_examples=200)
    def test_monotone_samples_give_monotone_predictions(
        self, xs, ys, d1, d2
    ):
        # similarly-ordered samples (bigger declared -> bigger observed)
        # must never predict a *smaller* working set for a *larger*
        # declared demand; rounding to whole bytes may differ by one
        n = min(len(xs), len(ys))
        pairs = list(zip(sorted(xs)[:n], sorted(ys)[:n]))
        est = OnlineWssEstimator(min_samples=3, history=16)
        feed(est, pairs)
        lo_d, hi_d = min(d1, d2), max(d1, d2)
        p_lo = est.predict(KEY, lo_d)
        p_hi = est.predict(KEY, hi_d)
        if p_lo is not None and p_hi is not None:
            assert p_lo <= p_hi + 1
