"""Each of the admission service's decisions, as a value, on a fake clock.

:class:`~repro.serve.server.AdmissionService` decides every verb and every
event that is not a verb synchronously and returns a
:class:`~repro.serve.server.Decision`, so lease expiry, park timeouts,
drains, migrations, token re-issue and the pending bounds are driven here
by plain calls on a clock the test moves.  No event loop runs and nothing
sleeps: the server's part (sockets, parked futures, timers) is played by
hand, waking a parked begin by calling ``park_ended`` the way the server
does once the begin's wait ends.
"""

from dataclasses import replace

import pytest

from repro.config import default_machine_config
from repro.core.api import MB
from repro.core.policy import StrictPolicy
from repro.core.progress_period import PeriodState
from repro.serve import protocol
from repro.serve.journal import replay_journal
from repro.serve.protocol import ErrorCode
from repro.serve.server import AdmissionService, Decision, ServeConfig

TTL_S = 10.0


class Clock:
    """A clock the test moves by hand."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class Conn:
    """The service's view of a connection."""

    def __init__(self, service):
        self.record = service.make_record()
        self.record.session = self
        self.closed = False
        self.movable = False

    def close(self):
        self.closed = True


def tiny_machine(capacity_mb=4.0):
    machine = default_machine_config()
    quantum = machine.llc.line_bytes * machine.llc.associativity
    capacity = MB(capacity_mb) // quantum * quantum
    return replace(machine, llc=replace(machine.llc, capacity_bytes=capacity))


def make_service(clock, **overrides):
    cfg = dict(
        policy=StrictPolicy(), machine=tiny_machine(), sanitize=True,
        lease_ttl_s=TTL_S, park_timeout_s=5.0,
    )
    cfg.update(overrides)
    return AdmissionService(ServeConfig(**cfg), clock=clock)


_ids = iter(range(1, 1 << 30))


def call(service, conn, op, **fields):
    """One well-formed request through the service's one entry point."""
    request = protocol.parse_request(
        {"v": protocol.PROTOCOL_VERSION, "id": next(_ids), "op": op, **fields}
    )
    decision = service.decide(conn, request)
    assert isinstance(decision, Decision)
    return request, decision


def connect(service, client=None, redirect=False):
    conn = Conn(service)
    if client is not None:
        _, decision = call(service, conn, "hello", client=client,
                           redirect=redirect)
        assert decision.reply["ok"] is True
    return conn


def begin(service, conn, mb, **fields):
    """A pp_begin: (request, decision, period)."""
    request, decision = call(
        service, conn, "pp_begin", demand_bytes=MB(mb), **fields
    )
    period = decision.park
    if period is None and decision.reply.get("ok"):
        period = conn.record.api.period(decision.reply["pp_id"])
    return request, decision, period


def parked(service, conn, mb):
    request, decision, period = begin(service, conn, mb)
    assert decision.reply is None and period.state is PeriodState.WAITING
    return request, period


def error(decision):
    assert decision.reply["ok"] is False
    return decision.reply["error"]


def nothing(decision):
    """No reply, no park, no wake."""
    return decision.reply is None and decision.park is None and not decision.woken


def test_one_clock_stamps_periods_and_times_leases():
    clock = Clock()
    service = make_service(clock)
    assert service.monitor.clock is clock and service.leases.clock is clock
    conn = connect(service, "alice")
    _, _, period = begin(service, conn, 1)
    assert period.begin_time == clock.now
    clock.now += 3.0
    _, beat = call(service, conn, "heartbeat")
    assert beat.reply["lease_remaining_s"] == TTL_S


class TestLeaseReaper:
    def test_a_dead_clients_periods_are_reclaimed_and_its_waiter_admitted(self):
        clock = Clock()
        service = make_service(clock)
        dead = connect(service, "dead")
        begin(service, dead, 3)
        waiter = connect(service)
        request, period = parked(service, waiter, 3)
        assert nothing(service.end_session(dead))  # leased: kept
        clock.now += TTL_S - 0.5
        assert nothing(service.reap())
        clock.now += 1.0
        reaped = service.reap()
        assert reaped.reply is None and list(reaped.woken) == [period]
        assert service.leases.get("dead") is None
        assert service.c_leases_reclaimed.value == 1
        assert service.c_lease_periods.value == 1
        verdict = service.park_ended(waiter, request, period, False)
        assert verdict.reply["admitted"] is True
        assert verdict.reply["pp_id"] == period.pp_id
        assert service.llc.usage_bytes == MB(3)

    def test_a_live_silent_client_loses_only_running_periods_once_per_lapse(
        self,
    ):
        clock = Clock()
        service = make_service(clock)
        holder = connect(service)
        _, _, held = begin(service, holder, 2)
        silent = connect(service, "silent")
        _, _, running = begin(service, silent, 1)
        request, waiting = parked(service, silent, 3)
        clock.now += TTL_S
        assert nothing(service.reap())
        assert running.state is PeriodState.COMPLETED
        assert waiting.state is PeriodState.WAITING
        assert service.leases.get("silent") is silent.record
        assert service.c_lease_periods.value == 1
        assert nothing(service.reap())  # renewed: once per lapse
        _, ended = call(service, holder, "pp_end", pp_id=held.pp_id)
        assert list(ended.woken) == [waiting]
        assert service.park_ended(silent, request, waiting, False).reply["ok"]
        clock.now += TTL_S
        service.reap()
        assert waiting.state is PeriodState.COMPLETED
        assert service.c_leases_reclaimed.value == 2
        assert service.c_lease_periods.value == 2
        assert service.leases.get("silent") is silent.record

    def test_a_waiter_admitted_and_reclaimed_in_one_pass_leaves_no_journal_record(
        self, tmp_path
    ):
        """The release that admits a lapsed client's own waiter journals
        the admission before the reaper closes it, so replay finds
        nothing open."""
        clock = Clock()
        path = str(tmp_path / "journal.ndjson")
        service = make_service(clock, journal_path=path)
        holder = connect(service)
        begin(service, holder, 2)
        silent = connect(service, "silent")
        begin(service, silent, 1)
        _, waiting = parked(service, silent, 1.5)
        clock.now += TTL_S
        assert list(service.reap().woken) == [waiting]  # admitted, then reaped
        assert waiting.state is PeriodState.COMPLETED
        assert service.c_lease_periods.value == 2
        assert service.journal.open == {}
        service.journal.close()
        assert replay_journal(path).open == {}


class TestParkEnds:
    def setup_parked(self, **overrides):
        clock = Clock()
        service = make_service(clock, **overrides)
        holder = connect(service)
        begin(service, holder, 3)
        waiter = connect(service, "waiter")
        request, period = parked(service, waiter, 3)
        return clock, service, waiter, request, period

    def test_park_timeout_sheds_with_a_retry_hint(self):
        floor, cap = 0.05, 0.4
        clock, service, waiter, request, period = self.setup_parked(
            retry_hint_floor_s=floor, retry_hint_cap_s=cap
        )
        clock.now += 5.0  # the server's park timer fired
        verdict = service.park_ended(waiter, request, period, False)
        err = error(verdict)
        assert err["code"] == ErrorCode.PARK_TIMEOUT
        assert err["waited_s"] == 5.0
        assert floor <= err["retry_after_s"] <= cap
        assert service.c_park_timeout.value == 1
        assert service.h_sojourn.count == 1
        assert period.pp_id not in service.registry
        assert len(service.waitlist) == 0

    def test_drain_while_parked_cancels_the_period(self):
        _, service, waiter, request, period = self.setup_parked()
        service.draining = True  # the server's drain woke every park
        err = error(service.park_ended(waiter, request, period, False))
        assert err["code"] == ErrorCode.DRAINING
        assert period.pp_id not in service.registry
        assert service.c_park_timeout.value == 0
        _, late, _ = begin(service, connect(service), 1)
        assert error(late)["code"] == ErrorCode.DRAINING
        assert service.c_draining_rejects.value == 1

    def test_a_disconnect_while_parked_cancels_with_no_reply(self):
        _, service, waiter, request, period = self.setup_parked()
        assert nothing(service.park_ended(waiter, request, period, True))
        assert waiter.closed
        assert service.c_disconnect_cancel.value == 1
        assert period.pp_id not in service.registry

    def test_a_strict_fifo_head_that_times_out_admits_the_waiter_behind(self):
        """Under ``--fifo`` the head holds back every waiter behind it, so
        the head's leaving admits a waiter that fits."""
        clock = Clock()
        service = make_service(clock, strict_fifo=True)
        holder = connect(service)
        begin(service, holder, 2)
        _, _, short = begin(service, holder, 1.5)
        head_conn = connect(service, "head")
        head_request, head = parked(service, head_conn, 3)
        _, behind = parked(service, connect(service, "behind"), 1)
        _, ended = call(service, holder, "pp_end", pp_id=short.pp_id)
        assert not ended.woken  # the 3 MB head does not fit in 2 MB
        clock.now += 5.0  # the head's park timer fired
        verdict = service.park_ended(head_conn, head_request, head, False)
        assert error(verdict)["code"] == ErrorCode.PARK_TIMEOUT
        assert list(verdict.woken) == [behind]
        assert behind.state is PeriodState.RUNNING
        assert service.llc.usage_bytes == MB(3)


class TestMigrate:
    SHARD = {"name": "s1", "unix_path": "/nonexistent/s1.sock"}

    def setup_holder(self):
        service = make_service(Clock())
        begin(service, connect(service), 3)
        return service

    def migrate(self, service, client):
        _, decision = call(
            service, connect(service), "migrate", client=client, shard=self.SHARD
        )
        return decision

    def test_a_sole_parked_begin_of_a_redirect_client_moves(self):
        service = self.setup_holder()
        mover = connect(service, "mover", redirect=True)
        request, period = parked(service, mover, 3)
        _, query = call(service, connect(service), "query")
        assert [p["client"] for p in query.reply["parked"]] == ["mover"]
        moved = self.migrate(service, "mover")
        assert moved.reply["moved"] == 1 and list(moved.woken) == [period]
        assert period.pp_id not in service.registry
        err = error(service.park_ended(mover, request, period, False))
        assert err["code"] == ErrorCode.REDIRECT
        assert err["shard"] == self.SHARD

    def test_nothing_else_moves(self):
        service = self.setup_holder()
        stay = connect(service, "stay")  # hello without redirect
        parked(service, stay, 3)
        busy = connect(service, "busy", redirect=True)
        begin(service, busy, 0.5)
        parked(service, busy, 3)  # a second open period
        for client in ("stay", "busy", "nobody"):
            kept = self.migrate(service, client)
            assert kept.reply["moved"] == 0 and not kept.woken
        assert len(service.waitlist) == 2

    def test_nothing_moves_once_the_drain_started(self):
        service = self.setup_holder()
        mover = connect(service, "mover", redirect=True)
        _, period = parked(service, mover, 3)
        service.draining = True
        assert self.migrate(service, "mover").reply["moved"] == 0
        assert period.state is PeriodState.WAITING


def test_a_token_reissue_is_deduped_and_charged_once():
    service = make_service(Clock())
    conn = connect(service, "tok")
    _, first, period = begin(service, conn, 1, token="t1")
    _, again, same = begin(service, conn, 1, token="t1")
    assert again.reply["deduped"] is True and same is period
    assert again.reply["pp_id"] == first.reply["pp_id"]
    assert service.llc.usage_bytes == MB(1)
    assert service.c_idempotent.value == 1


def test_a_reissue_that_supersedes_a_strict_fifo_head_wakes_the_waiter_behind():
    """A resilient client re-issues its parked begin by token on a new
    connection.  The stale head it supersedes held back a waiter that
    fits, and the new begin's decision wakes that waiter."""
    service = make_service(Clock(), strict_fifo=True)
    holder = connect(service)
    begin(service, holder, 2)
    _, _, short = begin(service, holder, 1.5)
    old = connect(service, "head")
    _, _, stale = begin(service, old, 3, token="t1")
    _, behind = parked(service, connect(service, "behind"), 1)
    _, ended = call(service, holder, "pp_end", pp_id=short.pp_id)
    assert not ended.woken and stale.state is PeriodState.WAITING
    new = connect(service, "head")  # the client's takeover
    assert old.closed
    _, reissue, fresh = begin(service, new, 3, token="t1")
    assert list(reissue.woken) == [behind]
    assert behind.state is PeriodState.RUNNING
    assert reissue.park is fresh and stale.pp_id not in service.registry
    assert service.llc.usage_bytes == MB(3)


@pytest.mark.parametrize("bound", ["max_pending", "max_pending_per_client"])
def test_each_pending_bound_refuses_with_its_own_message(bound):
    if bound == "max_pending":
        overrides, message = (
            dict(max_pending=1),
            "pending-admission queue is full (1 waiter(s))",
        )
    else:
        overrides, message = (
            dict(max_pending=10, max_pending_per_client=1),
            "client has 1 parked admission(s), at the per-client quota of 1",
        )
    service = make_service(Clock(), **overrides)
    begin(service, connect(service), 3)
    greedy = connect(service, "greedy")
    parked(service, greedy, 3)
    _, refused, period = begin(service, greedy, 3)
    err = error(refused)
    assert err["code"] == ErrorCode.RETRY_AFTER
    assert err["message"] == message
    assert err["retry_after_s"] > 0 and period is None
    assert service.c_retry_after.value == 1
    assert service.c_quota_rejects.value == (bound != "max_pending")
    assert len(service.waitlist) == 1
