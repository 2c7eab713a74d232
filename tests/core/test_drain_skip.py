"""The waitlist drain skips waiters that cannot fit, and admits exactly what
a full scan admits.

``ProgressMonitor._retry_waiters`` skips a waiter without evaluating the
predicate when its marginal demand is at least the smallest demand the
predicate rejected since the last admission.  The reference below offers
every waiter to ``try_schedule``, as the drain did before the skip.  Both
run over the real predicate, resource monitor and waitlist, under every
policy in the repository, including the example's ``SteppedPolicy``.
"""

import runpy
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import (
    AlwaysAdmitPolicy,
    CompromisePolicy,
    SchedulingPolicy,
    StrictPolicy,
)
from repro.core.predicate import Decision, SchedulingPredicate
from repro.core.progress_monitor import ProgressMonitor
from repro.core.progress_period import (
    PeriodRequest,
    PeriodState,
    ProgressPeriod,
    ResourceKind,
    ReuseLevel,
)
from repro.core.resource_monitor import ResourceMonitor
from repro.core.waitlist import Waitlist

KIND = ResourceKind.LLC

SteppedPolicy = runpy.run_path(
    str(Path(__file__).parents[2] / "examples" / "custom_policy.py")
)["SteppedPolicy"]


class FullScanMonitor(ProgressMonitor):
    """The drain before the skip: every waiter is offered to the predicate."""

    def _retry_waiters(self, completed):
        now = self.clock()
        admitted = self.waitlist.drain_admissible(
            completed.resource,
            lambda p: self.predicate.try_schedule(p) is Decision.RUN,
        )
        for p in admitted:
            p.state = PeriodState.RUNNING
            p.admit_time = now
        return admitted


class LenientWhenBusy(SchedulingPolicy):
    """Monotone in the outcome at a fixed state, but admits more once usage
    reaches ``busy``: only the floor's reset after an admission lets a
    waiter the drain rejected earlier in through the rescan."""

    name = "lenient when busy"

    def __init__(self, busy):
        self.busy = busy

    def allows(self, outcome_bytes, resource):
        return outcome_bytes >= 0 or resource.usage_bytes >= self.busy


def request(demand, key=None):
    return PeriodRequest(
        resource=KIND, demand_bytes=demand, reuse=ReuseLevel.LOW,
        sharing_key=key,
    )


class World:
    """A monitor with forced-in running periods and a parked queue."""

    def __init__(self, monitor_cls, policy, capacity, running, waiting,
                 strict_fifo=False):
        self.resources = ResourceMonitor()
        self.resources.register(KIND, capacity)
        self.predicate = SchedulingPredicate(self.resources, policy)
        self.waitlist = Waitlist(strict_fifo=strict_fifo)
        self.monitor = monitor_cls(
            self.resources, self.predicate, clock=lambda: 0.0,
            waitlist=self.waitlist,
        )
        self.running = []
        for i, (demand, key) in enumerate(running):
            # restore() charges without the predicate: usage may pass capacity
            period = ProgressPeriod(request=request(demand, key), owner=f"r{i}")
            self.monitor.restore(period)
            self.running.append(period)
        for i, (demand, key) in enumerate(waiting):
            period = ProgressPeriod(request=request(demand, key), owner=f"w{i}")
            period.state = PeriodState.WAITING
            self.monitor.registry.add(period)
            self.waitlist.park(period)

    def end(self, i):
        _, admitted = self.monitor.end(self.running[i].pp_id)
        return [p.owner for p in admitted]

    def observed(self):
        state = self.resources.state(KIND)
        return (
            state.usage_bytes,
            dict(state._shared_holders),
            [p.owner for p in self.waitlist.all_waiting()],
            self.predicate.stats.admitted,
        )


def ended_alike(policy, capacity, running, waiting, strict_fifo=False,
                ends=None):
    """End the first ``ends`` running periods (all by default) in both
    worlds, in order; compare after each end."""
    skip = World(ProgressMonitor, policy, capacity, running, waiting,
                 strict_fifo)
    full = World(FullScanMonitor, policy, capacity, running, waiting,
                 strict_fifo)
    for i in range(len(running) if ends is None else ends):
        assert skip.end(i) == full.end(i)
        assert skip.observed() == full.observed()
    assert skip.predicate.stats.evaluated <= full.predicate.stats.evaluated
    return skip, full


entry = st.tuples(
    st.integers(min_value=0, max_value=10),
    st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
)
policies = st.one_of(
    st.just(StrictPolicy()),
    st.floats(min_value=1.0, max_value=3.0).map(CompromisePolicy),
    st.just(AlwaysAdmitPolicy()),
    st.builds(
        SteppedPolicy,
        knee=st.floats(min_value=0.0, max_value=1.0),
        oversubscription=st.floats(min_value=1.0, max_value=3.0),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    policy=policies,
    capacity=st.integers(min_value=1, max_value=15),
    running=st.lists(entry, min_size=1, max_size=4),
    waiting=st.lists(entry, max_size=12),
    strict_fifo=st.booleans(),
)
def test_skip_admits_exactly_what_a_full_scan_admits(
    policy, capacity, running, waiting, strict_fifo
):
    ended_alike(policy, capacity, running, waiting, strict_fifo)


def test_a_waiter_at_the_floor_is_skipped():
    # ending the 3 leaves 6 free: w0 (8) is rejected, so w1 (8) and w2 (9)
    # are skipped unevaluated; w3 (3) is evaluated and admitted
    skip, full = ended_alike(
        StrictPolicy(), 10, [(3, None), (4, None)],
        [(8, None), (8, None), (9, None), (3, None)], ends=1,
    )
    assert skip.observed()[2] == ["w0", "w1", "w2"]
    # skip: w0, w3, then w0 again in the rescan (the admission reset the
    # floor); the full scan evaluates all four, then the three left
    assert skip.predicate.stats.evaluated == 3
    assert full.predicate.stats.evaluated == 7


def test_the_floor_is_the_smallest_need_refused():
    # ending the 3 leaves 6 free: w0 (8) and then w1 (7) are refused, so
    # w2 (7) and w3 (9) are skipped; a floor left at 8 would evaluate w2
    skip, full = ended_alike(
        StrictPolicy(), 10, [(3, None), (4, None)],
        [(8, None), (7, None), (7, None), (9, None)], ends=1,
    )
    assert skip.predicate.stats.evaluated == 2
    assert full.predicate.stats.evaluated == 4


def test_the_floor_resets_after_an_admission():
    # ending the 3 leaves 6 free: w0 (8) is rejected, w1 (2) is admitted,
    # which lifts usage to 6 and makes the policy lenient; the rescan must
    # evaluate w0 again although its need equals the floor before
    skip, _ = ended_alike(
        LenientWhenBusy(busy=6), 10, [(3, None), (4, None)],
        [(8, None), (2, None)], ends=1,
    )
    assert skip.observed()[:3] == (14, {}, [])


def test_a_shared_key_charged_by_a_later_waiter_frees_an_earlier_one():
    # w0 declares 8 bytes of key "k" and does not fit; w1, a sibling that
    # declares 2, fits and charges "k"; w0's marginal need drops to 0
    skip, _ = ended_alike(
        StrictPolicy(), 10, [(3, None), (4, None)],
        [(8, "k"), (2, "k")], ends=1,
    )
    assert skip.observed()[:3] == (6, {"k": 2}, [])


def test_an_empty_queue_evaluates_nothing():
    world = World(ProgressMonitor, StrictPolicy(), 10, [(4, None)], [])
    assert world.end(0) == []
    assert world.predicate.stats.evaluated == 0
