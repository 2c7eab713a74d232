"""Kernel sanitizer tests: clean runs stay clean, injected faults fire.

Every invariant checker gets two kinds of coverage:

* *clean*: real workloads under ``sanitize=True`` finish with zero
  violations (the oracle does not cry wolf), and
* *fault injection*: deliberately corrupted kernel/scheduler state makes
  exactly that checker report — proving the oracle can actually see the
  class of bug it claims to watch for.
"""

from __future__ import annotations

import pytest

from repro.core.admission import AdmissionCore
from repro.core.policy import CompromisePolicy, StrictPolicy
from repro.core.progress_period import (
    PeriodRequest,
    PeriodState,
    ProgressPeriod,
    ResourceKind,
    ReuseLevel,
)
from repro.core.rda import RdaScheduler
from repro.errors import SanitizerError
from repro.sanitizer import (
    CHECKERS,
    ConservationChecker,
    DemandBoundChecker,
    DispatchOverlapChecker,
    KernelSanitizer,
    LostWakeupChecker,
    QueueExclusivityChecker,
    default_checkers,
    register_checker,
)
from repro.sanitizer.invariants import InvariantChecker
from repro.sim.kernel import Kernel
from repro.sim.process import ThreadState
from repro.sim.tracing import TraceEvent, TraceKind
from repro.units import kib

from ..conftest import make_phase, make_workload


def request(demand, key=None):
    return PeriodRequest(ResourceKind.LLC, demand, ReuseLevel.LOW, sharing_key=key)


def rig(small_machine, policy=None, **kwargs):
    """A kernel + RDA scheduler with a non-raising sanitizer attached."""
    scheduler = RdaScheduler(policy=policy or StrictPolicy(), config=small_machine)
    sanitizer = KernelSanitizer(strict=False, **kwargs)
    kernel = Kernel(config=small_machine, extension=scheduler, sanitize=sanitizer)
    return kernel, scheduler, sanitizer


def fired(sanitizer):
    """The set of invariant names that reported at least once."""
    return {v.invariant for v in sanitizer.violations}


# ======================================================================
# registry / plumbing
# ======================================================================
class TestRegistry:
    def test_all_five_invariants_registered(self):
        assert set(CHECKERS) == {
            "demand-bound",
            "lost-wakeup",
            "queue-exclusivity",
            "dispatch-overlap",
            "conservation",
        }

    def test_default_checkers_fresh_instances(self):
        a, b = default_checkers(), default_checkers()
        assert len(a) == len(CHECKERS)
        assert all(x is not y for x, y in zip(a, b))

    def test_subset_selection(self):
        only = default_checkers(only=["conservation"])
        assert len(only) == 1 and isinstance(only[0], ConservationChecker)

    def test_unknown_checker_name_raises(self):
        with pytest.raises(SanitizerError, match="unknown checker"):
            default_checkers(only=["no-such-invariant"])

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SanitizerError, match="duplicate"):

            @register_checker
            class Clone(InvariantChecker):
                name = "conservation"

    def test_nameless_checker_rejected(self):
        with pytest.raises(SanitizerError, match="distinct name"):

            @register_checker
            class Anonymous(InvariantChecker):
                pass

    def test_double_attach_rejected(self, small_machine):
        kernel, _, san = rig(small_machine)
        with pytest.raises(SanitizerError, match="already attached"):
            san.attach(kernel)


# ======================================================================
# clean runs: the oracle does not cry wolf
# ======================================================================
class TestCleanRuns:
    @pytest.mark.parametrize(
        "policy", [None, StrictPolicy(), CompromisePolicy(oversubscription=2.0)]
    )
    def test_contended_workload_is_violation_free(self, small_machine, policy):
        # 6 x 0.4 MB against a 1 MiB LLC: plenty of denials and wakes
        wl = make_workload(n_processes=6, phases=[make_phase(wss_mb=0.4)])
        sched = RdaScheduler(policy=policy, config=small_machine) if policy else None
        kernel = Kernel(config=small_machine, extension=sched, sanitize=True)
        kernel.launch(wl)
        kernel.run(max_events=2_000_000)  # strict mode: raises on violation
        assert kernel.sanitizer.ok
        assert kernel.sanitizer.summary() == "sanitizer: 0 violations"

    def test_barriers_and_shared_sets_are_violation_free(self, small_machine):
        from repro.workloads.base import barrier_phase

        phases = [
            make_phase("a", wss_mb=0.5, shared=True),
            barrier_phase("sync"),
            make_phase("b", wss_mb=0.3, shared=True),
        ]
        wl = make_workload(n_processes=3, n_threads=2, phases=phases)
        kernel, _, san = rig(small_machine)
        kernel.launch(wl)
        kernel.run(max_events=2_000_000)
        assert san.ok, san.summary()

    def test_strict_mode_raises_on_violation(self, small_machine):
        kernel, sched, _ = rig(small_machine)
        kernel.sanitizer.strict = True
        # corrupt state, then complete a trivial workload so run() finalizes
        sched.resources.increment_load(request(kib(2048)))  # 2 MiB > 1 MiB LLC
        kernel.launch(make_workload(n_processes=1, phases=[make_phase(declare_pp=False)]))
        with pytest.raises(SanitizerError, match="demand-bound"):
            kernel.run(max_events=100_000)


# ======================================================================
# invariant 1: aggregate admitted demand <= policy bound
# ======================================================================
class TestDemandBoundInjection:
    def test_oversubscribed_strict_fires(self, small_machine):
        _, sched, san = rig(small_machine)
        sched.resources.increment_load(request(kib(2048)))  # 2 MiB on 1 MiB
        san.on_quiescent(0.0)
        assert "demand-bound" in fired(san)

    def test_violation_latched_not_flooded(self, small_machine):
        _, sched, san = rig(small_machine)
        sched.resources.increment_load(request(kib(2048)))
        for t in range(10):
            san.on_quiescent(float(t))
        only = [v for v in san.violations if v.invariant == "demand-bound"]
        assert len(only) == 1  # one root cause, one report

    def test_latch_clears_when_condition_heals(self, small_machine):
        _, sched, san = rig(small_machine)
        req = request(kib(2048))
        sched.resources.increment_load(req)
        san.on_quiescent(0.0)
        sched.resources.release_load(req)
        san.on_quiescent(1.0)  # healed: latch resets
        sched.resources.increment_load(req)
        san.on_quiescent(2.0)  # broken again: reports again
        only = [v for v in san.violations if v.invariant == "demand-bound"]
        assert len(only) == 2

    def test_compromise_bound_scales_with_factor(self, small_machine):
        _, sched, san = rig(
            small_machine, policy=CompromisePolicy(oversubscription=2.0)
        )
        sched.resources.increment_load(request(kib(1536)))  # 1.5x: allowed
        san.on_quiescent(0.0)
        assert "demand-bound" not in fired(san)
        sched.resources.increment_load(request(kib(1024)))  # 2.5x: over
        san.on_quiescent(1.0)
        assert "demand-bound" in fired(san)

    def test_forced_admissions_are_exempt(self, small_machine):
        """Starvation-guard admissions bypass the policy bound by design."""
        _, sched, san = rig(small_machine)
        req = request(kib(4096))  # 4 MiB on a 1 MiB LLC
        period = ProgressPeriod(
            request=req, owner=object(), state=PeriodState.RUNNING, forced=True
        )
        sched.registry.add(period)
        sched.resources.increment_load(req)
        san.on_quiescent(0.0)
        assert "demand-bound" not in fired(san)


# ======================================================================
# invariant 2: every PP_DENY is followed by PP_WAKE or EXIT
# ======================================================================
def _event(kind, tid, core=None, t=0.0, detail=""):
    return TraceEvent(time_s=t, kind=kind, tid=tid, core=core, detail=detail)


class TestLostWakeupInjection:
    def test_deny_without_wake_fires_at_finalize(self, small_machine):
        kernel, _, san = rig(small_machine)
        san.on_kernel_event(kernel, _event(TraceKind.PP_DENY, tid=7, detail="w"))
        san.finalize()
        assert "lost-wakeup" in fired(san)

    def test_deny_then_wake_is_clean(self, small_machine):
        kernel, _, san = rig(small_machine)
        san.on_kernel_event(kernel, _event(TraceKind.PP_DENY, tid=7))
        san.on_kernel_event(kernel, _event(TraceKind.PP_WAKE, tid=7, t=1.0))
        san.finalize()
        assert san.ok

    def test_deny_then_exit_is_clean(self, small_machine):
        kernel, _, san = rig(small_machine)
        san.on_kernel_event(kernel, _event(TraceKind.PP_DENY, tid=7))
        san.on_kernel_event(kernel, _event(TraceKind.EXIT, tid=7, t=1.0))
        san.finalize()
        assert san.ok

    def test_spurious_wake_fires_immediately(self, small_machine):
        kernel, _, san = rig(small_machine)
        san.on_kernel_event(kernel, _event(TraceKind.PP_WAKE, tid=3))
        assert "lost-wakeup" in fired(san)
        assert "spurious" in san.violations[0].message

    def test_bounded_wait_fires_mid_simulation(self, small_machine):
        checker = LostWakeupChecker(max_wait_s=1e-3)
        san = KernelSanitizer(checkers=[checker], strict=False)
        sched = RdaScheduler(config=small_machine)
        kernel = Kernel(config=small_machine, extension=sched, sanitize=san)
        san.on_kernel_event(kernel, _event(TraceKind.PP_DENY, tid=5, t=0.0))
        san.on_quiescent(0.5e-3)  # still within the bound
        assert san.ok
        san.on_quiescent(2e-3)  # bound exceeded
        assert "lost-wakeup" in fired(san)


# ======================================================================
# invariant 3: run queue and wait queues are mutually exclusive
# ======================================================================
class TestQueueExclusivityInjection:
    def _partial_kernel(self, small_machine):
        """Run a 4-process workload briefly: 2 cores busy, 2 threads queued."""
        kernel, sched, san = rig(small_machine)
        kernel.launch(make_workload(n_processes=4, phases=[make_phase(declare_pp=False)]))
        kernel.run(until=1e-6)
        assert not san.violations  # consistent before corruption
        return kernel, san

    def test_queued_thread_in_wait_state_fires(self, small_machine):
        kernel, san = self._partial_kernel(small_machine)
        queued = next(
            t
            for p in kernel.processes
            for t in p.threads
            if t.state is ThreadState.READY and t in kernel.cfs.queue
        )
        queued.state = ThreadState.PP_WAIT  # corrupt: parked but still queued
        san.on_quiescent(kernel.now)
        assert "queue-exclusivity" in fired(san)

    def test_running_thread_without_core_fires(self, small_machine):
        kernel, san = self._partial_kernel(small_machine)
        core = next(c for c in kernel.cores if c.thread is not None)
        core.thread = None  # corrupt: thread believes it runs, core disagrees
        san.on_quiescent(kernel.now)
        assert "queue-exclusivity" in fired(san)
        assert any("not on any core" in v.message for v in san.violations)

    def test_barrier_waiter_on_runqueue_fires(self, small_machine):
        from repro.workloads.base import barrier_phase

        kernel, sched, san = rig(small_machine)
        phases = [make_phase("a", declare_pp=False), barrier_phase("sync"),
                  make_phase("b", declare_pp=False)]
        # 3 sibling threads, 2 cores: someone parks at the barrier early
        kernel.launch(make_workload(n_processes=1, n_threads=3, phases=phases))
        while not kernel._barriers and kernel.engine.peek_time() is not None:
            kernel.engine.step()
        assert kernel._barriers and not san.violations
        waiter = next(iter(next(iter(kernel._barriers.values())).waiters()))
        kernel.cfs.enqueue(waiter)  # corrupt: parked AND runnable
        san.on_quiescent(kernel.now)
        assert "queue-exclusivity" in fired(san)


# ======================================================================
# invariant 4: per-core dispatch intervals never overlap
# ======================================================================
class TestDispatchOverlapInjection:
    def test_double_dispatch_on_one_core_fires(self, small_machine):
        kernel, _, san = rig(small_machine)
        san.on_kernel_event(kernel, _event(TraceKind.DISPATCH, tid=1, core=0))
        san.on_kernel_event(kernel, _event(TraceKind.DISPATCH, tid=2, core=0, t=1.0))
        assert "dispatch-overlap" in fired(san)

    def test_one_thread_on_two_cores_fires(self, small_machine):
        kernel, _, san = rig(small_machine)
        san.on_kernel_event(kernel, _event(TraceKind.DISPATCH, tid=1, core=0))
        san.on_kernel_event(kernel, _event(TraceKind.DISPATCH, tid=1, core=1, t=1.0))
        assert "dispatch-overlap" in fired(san)

    def test_release_by_wrong_thread_fires(self, small_machine):
        kernel, _, san = rig(small_machine)
        san.on_kernel_event(kernel, _event(TraceKind.DISPATCH, tid=1, core=0))
        san.on_kernel_event(kernel, _event(TraceKind.PREEMPT, tid=2, core=0, t=1.0))
        assert "dispatch-overlap" in fired(san)

    def test_dispatch_release_dispatch_is_clean(self, small_machine):
        kernel, _, san = rig(small_machine)
        for ev in (
            _event(TraceKind.DISPATCH, tid=1, core=0),
            _event(TraceKind.PREEMPT, tid=1, core=0, t=1.0),
            _event(TraceKind.DISPATCH, tid=2, core=0, t=1.0),
            _event(TraceKind.EXIT, tid=2, core=0, t=2.0),
        ):
            san.on_kernel_event(kernel, ev)
        assert san.ok


# ======================================================================
# invariant 5: conservation of reserved capacity
# ======================================================================
class TestConservationInjection:
    def test_double_release_fires(self, small_machine):
        _, sched, san = rig(small_machine)
        a, b = request(kib(512)), request(kib(64))
        sched.resources.increment_load(a)
        sched.resources.increment_load(b)
        sched.resources.release_load(b)
        sched.resources.release_load(b)  # double release of b
        assert "conservation" in fired(san)
        assert any("matching charge" in v.message for v in san.violations)

    def test_usage_mutated_behind_monitors_back_fires(self, small_machine):
        _, sched, san = rig(small_machine)
        sched.resources.increment_load(request(kib(128)))
        san.on_quiescent(0.0)
        assert san.ok  # ledger and usage agree so far
        sched.llc.usage_bytes += 4096  # corrupt: bypassed increment_load
        san.on_quiescent(1.0)
        assert "conservation" in fired(san)
        assert any("ledger" in v.message for v in san.violations)

    def test_leaked_reservation_fires_at_finalize(self, small_machine):
        _, sched, san = rig(small_machine)
        sched.resources.increment_load(request(kib(128)))  # never released
        san.finalize()
        assert "conservation" in fired(san)
        assert any("never released" in v.message for v in san.violations)

    def test_balanced_charges_are_clean(self, small_machine):
        _, sched, san = rig(small_machine)
        a, b = request(kib(512)), request(kib(64), key="shared")
        for req in (a, b, b):  # shared set charged once, held twice
            sched.resources.increment_load(req)
        for req in (b, a, b):
            sched.resources.release_load(req)
        san.on_quiescent(0.0)
        san.finalize()
        assert san.ok, san.summary()


class TestCoreAttachment:
    """A kernel-less admission core (the service's) with the ledger
    checkers attached: every charge, release and resize is checked."""

    def core(self, checkers=("conservation",), clock=lambda: 0.0):
        core = AdmissionCore(StrictPolicy(), 1000, clock)
        san = KernelSanitizer(default_checkers(list(checkers))).attach_core(core)
        return core, san

    @pytest.mark.parametrize("begin, resize", [(600, 300), (300, 600)])
    def test_resize_then_end_is_clean(self, begin, resize):
        core, san = self.core()
        period = core.monitor.begin("t", request(begin))
        core.monitor.resize(period.pp_id, resize)
        core.monitor.end(period.pp_id)
        san.finalize()
        assert san.ok, san.summary()

    def test_shared_set_resize_then_end_is_clean(self):
        core, san = self.core()
        first = core.monitor.begin("t1", request(600, key="k"))
        second = core.monitor.begin("t2", request(600, key="k"))
        core.monitor.resize(first.pp_id, 200)
        core.monitor.end(second.pp_id)
        core.monitor.end(first.pp_id)
        san.finalize()
        assert san.ok, san.summary()

    def test_release_after_a_resize_is_still_a_double_release(self):
        core, san = self.core()
        core.monitor.begin("t1", request(400))
        period = core.monitor.begin("t2", request(600))
        core.monitor.resize(period.pp_id, 300)
        core.monitor.end(period.pp_id)
        assert san.ok, san.summary()
        core.resources.release_load(period.request)  # released twice
        assert any("matching charge" in v.message for v in san.violations)

    def test_ledger_drift_is_caught_at_the_next_charge(self):
        core, san = self.core()
        core.llc.usage_bytes += 64  # corrupt: bypassed increment_load
        assert san.ok  # nothing has checked yet
        core.resources.increment_load(request(100))
        assert fired(san) == {"conservation"}

    def test_violations_carry_the_core_clock(self):
        core, san = self.core(("demand-bound",), clock=lambda: 12.5)
        core.resources.increment_load(request(1001))
        assert fired(san) == {"demand-bound"}
        assert san.violations[0].time_s == 12.5

    def test_a_core_sanitizer_cannot_attach_twice(self, small_machine):
        core, san = self.core()
        with pytest.raises(SanitizerError, match="already attached"):
            san.attach_core(core)
        with pytest.raises(SanitizerError, match="already attached"):
            san.attach(Kernel(config=small_machine))


# ======================================================================
# violation reports
# ======================================================================
class TestReports:
    def test_violation_carries_event_window(self, small_machine):
        kernel, _, san = rig(small_machine)
        san.on_kernel_event(kernel, _event(TraceKind.DISPATCH, tid=1, core=0))
        san.on_kernel_event(kernel, _event(TraceKind.DISPATCH, tid=2, core=0, t=1.0))
        v = san.violations[0]
        assert v.invariant == "dispatch-overlap"
        assert [e.kind for e in v.window] == [TraceKind.DISPATCH, TraceKind.DISPATCH]
        assert "dispatch" in v.describe()

    def test_violation_cap_counts_drops(self, small_machine):
        _, _, san = rig(small_machine)
        for i in range(1100):
            san.report("demand-bound", f"synthetic #{i}")
        assert len(san.violations) == 1000
        assert san.dropped == 100
        assert "+100 dropped" in san.summary()

    def test_summary_lists_each_violation(self, small_machine):
        _, _, san = rig(small_machine)
        san.report("conservation", "one", tid=4)
        san.report("lost-wakeup", "two")
        text = san.summary()
        assert "2 invariant violation(s)" in text
        assert "conservation" in text and "lost-wakeup" in text
        with pytest.raises(SanitizerError):
            san.check()
