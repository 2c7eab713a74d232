"""Progress monitor tests (figures 5 and 6 workflows)."""

import pytest

from repro.core.policy import StrictPolicy
from repro.core.predicate import SchedulingPredicate
from repro.core.progress_monitor import ProgressMonitor
from repro.core.progress_period import (
    PeriodRequest,
    PeriodState,
    ResourceKind,
    ReuseLevel,
)
from repro.core.resource_monitor import ResourceMonitor

CAP = 10_000


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def monitor():
    resources = ResourceMonitor()
    resources.register(ResourceKind.LLC, CAP)
    clock = FakeClock()
    m = ProgressMonitor(
        resources=resources,
        predicate=SchedulingPredicate(resources, StrictPolicy()),
        clock=clock,
    )
    m.fake_clock = clock  # type: ignore[attr-defined]
    return m


def req(demand, key=None):
    return PeriodRequest(ResourceKind.LLC, demand, ReuseLevel.HIGH, sharing_key=key)


class TestBegin:
    def test_admitted_period_runs(self, monitor):
        pp = monitor.begin("t1", req(4000))
        assert pp.state is PeriodState.RUNNING
        assert pp.admit_time == 0.0
        assert monitor.active_count == 1
        assert monitor.waiting_count == 0

    def test_denied_period_waits(self, monitor):
        monitor.begin("t1", req(9000))
        pp = monitor.begin("t2", req(5000))
        assert pp.state is PeriodState.WAITING
        assert monitor.waiting_count == 1
        assert pp.admit_time is None

    def test_begin_returns_unique_ids(self, monitor):
        a = monitor.begin("t1", req(100))
        b = monitor.begin("t2", req(100))
        assert a.pp_id != b.pp_id


class TestEnd:
    def test_end_releases_demand(self, monitor):
        pp = monitor.begin("t1", req(4000))
        monitor.end(pp.pp_id)
        assert monitor.resources.state(ResourceKind.LLC).usage_bytes == 0
        assert pp.state is PeriodState.COMPLETED
        assert monitor.active_count == 0

    def test_end_admits_waiters(self, monitor):
        first = monitor.begin("t1", req(9000))
        waiting = monitor.begin("t2", req(5000))
        _, admitted = monitor.end(first.pp_id)
        assert admitted == [waiting]
        assert waiting.state is PeriodState.RUNNING

    def test_end_admits_multiple_waiters(self, monitor):
        first = monitor.begin("t1", req(10_000))
        w1 = monitor.begin("t2", req(4000))
        w2 = monitor.begin("t3", req(4000))
        w3 = monitor.begin("t4", req(4000))
        _, admitted = monitor.end(first.pp_id)
        assert admitted == [w1, w2]
        assert w3.state is PeriodState.WAITING

    def test_waited_time_recorded(self, monitor):
        first = monitor.begin("t1", req(9000))
        waiting = monitor.begin("t2", req(5000))
        monitor.fake_clock.t = 7.5
        monitor.end(first.pp_id)
        assert waiting.waited_s == pytest.approx(7.5)

    def test_end_unknown_id_raises(self, monitor):
        from repro.errors import UnknownProgressPeriodError

        with pytest.raises(UnknownProgressPeriodError):
            monitor.end(424242)


class TestAbandon:
    def test_abandon_releases_running(self, monitor):
        monitor.begin("t1", req(9000))
        waiting = monitor.begin("t2", req(5000))
        admitted = monitor.abandon_owner("t1")
        assert monitor.resources.state(ResourceKind.LLC).usage_bytes == 5000
        assert admitted == [waiting]

    def test_abandon_unparks_waiting(self, monitor):
        monitor.begin("t1", req(9000))
        monitor.begin("t2", req(5000))
        monitor.abandon_owner("t2")
        assert monitor.waiting_count == 0
        assert monitor.active_count == 1

    def test_abandon_handles_multiple_periods(self, monitor):
        monitor.begin("t1", req(3000))
        monitor.begin("t1", req(3000))
        monitor.abandon_owner("t1")
        assert monitor.resources.state(ResourceKind.LLC).usage_bytes == 0

    def test_abandon_without_periods_is_noop(self, monitor):
        assert monitor.abandon_owner("ghost") == []


class TestSharedGroups:
    def test_sibling_periods_share_one_charge(self, monitor):
        a = monitor.begin("t1", req(9000, key="proc"))
        b = monitor.begin("t2", req(9000, key="proc"))
        assert a.state is PeriodState.RUNNING
        assert b.state is PeriodState.RUNNING
        assert monitor.resources.state(ResourceKind.LLC).usage_bytes == 9000
        monitor.end(a.pp_id)
        assert monitor.resources.state(ResourceKind.LLC).usage_bytes == 9000
        monitor.end(b.pp_id)
        assert monitor.resources.state(ResourceKind.LLC).usage_bytes == 0

    def test_waitlisted_group_admitted_together(self, monitor):
        blocker = monitor.begin("t0", req(8000))
        a = monitor.begin("t1", req(5000, key="proc"))
        b = monitor.begin("t2", req(5000, key="proc"))
        assert a.state is PeriodState.WAITING and b.state is PeriodState.WAITING
        _, admitted = monitor.end(blocker.pp_id)
        assert set(admitted) == {a, b}
        assert monitor.resources.state(ResourceKind.LLC).usage_bytes == 5000
