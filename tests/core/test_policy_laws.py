"""Algebraic laws relating the scheduling policies (hypothesis)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.policy import AlwaysAdmitPolicy, CompromisePolicy, StrictPolicy
from repro.core.progress_period import ResourceKind
from repro.core.resource_monitor import ResourceState

CAP = 15_728_640

outcome_st = st.floats(min_value=-8 * CAP, max_value=2 * CAP)
usage_st = st.integers(min_value=0, max_value=4 * CAP)
factor_st = st.floats(min_value=1.0, max_value=8.0)


def state(usage=0):
    return ResourceState(kind=ResourceKind.LLC, capacity_bytes=CAP, usage_bytes=usage)


class TestPolicyLattice:
    @given(outcome_st, usage_st)
    def test_strict_admits_subset_of_compromise(self, outcome, usage):
        s = state(usage)
        if StrictPolicy().allows(outcome, s):
            assert CompromisePolicy().allows(outcome, s)

    @given(outcome_st, usage_st, factor_st, factor_st)
    def test_compromise_monotone_in_factor(self, outcome, usage, f1, f2):
        lo, hi = sorted((f1, f2))
        s = state(usage)
        if CompromisePolicy(oversubscription=lo).allows(outcome, s):
            assert CompromisePolicy(oversubscription=hi).allows(outcome, s)

    @given(outcome_st, usage_st)
    def test_always_admit_is_the_top(self, outcome, usage):
        s = state(usage)
        for policy in (StrictPolicy(), CompromisePolicy()):
            if policy.allows(outcome, s):
                assert AlwaysAdmitPolicy().allows(outcome, s)

    @given(usage_st)
    def test_zero_demand_always_admitted_when_capacity_free(self, usage):
        """outcome = remaining - 0 = capacity - usage."""
        s = state(usage)
        outcome = s.remaining_bytes
        if usage <= CAP:
            assert StrictPolicy().allows(outcome, s)
        if usage <= 2 * CAP:
            assert CompromisePolicy().allows(outcome, s)

    @given(outcome_st, outcome_st, usage_st, factor_st)
    def test_allows_is_non_decreasing_in_the_outcome(self, o1, o2, usage, x):
        """The waitlist drain skips a need at least one already refused."""
        lo, hi = sorted((o1, o2))
        s = state(usage)
        for policy in (
            StrictPolicy(), CompromisePolicy(oversubscription=x),
            AlwaysAdmitPolicy(),
        ):
            if policy.allows(lo, s):
                assert policy.allows(hi, s)

    @given(outcome_st, usage_st)
    def test_decisions_are_deterministic(self, outcome, usage):
        s = state(usage)
        for policy in (StrictPolicy(), CompromisePolicy(), AlwaysAdmitPolicy()):
            assert policy.allows(outcome, s) == policy.allows(outcome, s)
