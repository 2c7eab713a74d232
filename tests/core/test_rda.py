"""RdaScheduler tests against the simulated kernel (§3 integration)."""

import pytest

from repro.core.policy import CompromisePolicy, StrictPolicy
from repro.core.rda import RdaScheduler
from repro.core.progress_period import PeriodState
from repro.sim.kernel import AdmissionDecision, Kernel
from repro.sim.process import ThreadState

from ..conftest import make_phase, make_workload


def run_kernel(workload, policy=StrictPolicy(), config=None, ended=None):
    """Run ``workload`` to the end; each period the scheduler's monitor
    ends is appended to ``ended`` when a list is given."""
    scheduler = RdaScheduler(policy=policy, config=config)
    if ended is not None:
        end = scheduler.monitor.end

        def spy(pp_id):
            period, admitted = end(pp_id)
            ended.append(period)
            return period, admitted

        scheduler.monitor.end = spy
    kernel = Kernel(config=config, extension=scheduler)
    kernel.launch(workload)
    kernel.run(max_events=2_000_000)
    return kernel, scheduler


class TestAdmissionThroughKernel:
    def test_small_workload_completes(self):
        kernel, sched = run_kernel(make_workload(n_processes=3))
        assert kernel.all_exited
        assert len(sched.registry) == 0
        assert len(sched.waitlist) == 0

    def test_strict_never_oversubscribes(self, paper_machine):
        # 20 processes x 4 MB against a 15.7 MB LLC: at most 3 at a time.
        wl = make_workload(n_processes=20, phases=[make_phase(wss_mb=4.0)])
        scheduler = RdaScheduler(policy=StrictPolicy(), config=paper_machine)
        kernel = Kernel(config=paper_machine, extension=scheduler)
        kernel.launch(wl)
        cap = paper_machine.llc_capacity
        max_seen = 0
        while not kernel.all_exited:
            kernel.engine.step()
            max_seen = max(max_seen, scheduler.llc.usage_bytes)
        assert max_seen <= cap

    def test_compromise_bounded_by_factor(self, paper_machine):
        wl = make_workload(n_processes=20, phases=[make_phase(wss_mb=4.0)])
        scheduler = RdaScheduler(
            policy=CompromisePolicy(oversubscription=2.0), config=paper_machine
        )
        kernel = Kernel(config=paper_machine, extension=scheduler)
        kernel.launch(wl)
        max_seen = 0
        while not kernel.all_exited:
            kernel.engine.step()
            max_seen = max(max_seen, scheduler.llc.usage_bytes)
        assert max_seen <= 2 * paper_machine.llc_capacity
        assert max_seen > paper_machine.llc_capacity  # it did oversubscribe

    def test_all_waiters_eventually_admitted(self):
        ended = []
        kernel, sched = run_kernel(
            make_workload(n_processes=30, phases=[make_phase(wss_mb=5.0)]),
            ended=ended,
        )
        assert kernel.all_exited
        # every period completed exactly once
        assert len(ended) == 30
        assert all(p.state is PeriodState.COMPLETED for p in ended)

    def test_denials_recorded_in_waits(self):
        ended = []
        kernel, sched = run_kernel(
            make_workload(n_processes=10, phases=[make_phase(wss_mb=8.0)]),
            ended=ended,
        )
        waited = [p for p in ended if p.waited_s > 0]
        assert len(waited) >= 8  # only one runs at a time; the rest waited


class TestStarvationGuard:
    def test_oversized_demand_forced_through(self, paper_machine):
        """A period larger than the LLC must not deadlock the system."""
        huge = make_phase(wss_mb=100.0)  # 100 MB > 15.7 MB LLC
        kernel, sched = run_kernel(
            make_workload(n_processes=2, phases=[huge]), config=paper_machine
        )
        assert kernel.all_exited
        assert sched.forced_admissions >= 1

    def test_guard_disabled_raises_diagnostic(self, paper_machine):
        from repro.errors import SimulationError

        huge = make_phase(wss_mb=100.0)
        scheduler = RdaScheduler(
            policy=StrictPolicy(), config=paper_machine, starvation_guard=False
        )
        kernel = Kernel(config=paper_machine, extension=scheduler)
        kernel.launch(make_workload(n_processes=2, phases=[huge]))
        with pytest.raises(SimulationError, match="stalled"):
            kernel.run(max_events=1_000_000)

    def test_forced_periods_carry_the_forced_flag(self, paper_machine):
        """Guard admissions are marked so the sanitizer can exempt them."""
        huge = make_phase(wss_mb=100.0)
        ended = []
        kernel, sched = run_kernel(
            make_workload(n_processes=2, phases=[huge]), config=paper_machine,
            ended=ended,
        )
        forced = [p for p in ended if p.forced]
        assert len(forced) == sched.forced_admissions >= 1
        assert all(p.state is PeriodState.COMPLETED for p in forced)

    def test_mis_annotated_period_runs_under_sanitizer(self, paper_machine):
        """A demand larger than the LLC must run (not deadlock) and the
        forced admission must not count against the demand-bound invariant."""
        huge = make_phase(wss_mb=100.0)  # declared demand > whole LLC
        scheduler = RdaScheduler(policy=StrictPolicy(), config=paper_machine)
        kernel = Kernel(config=paper_machine, extension=scheduler, sanitize=True)
        kernel.launch(make_workload(n_processes=3, phases=[huge]))
        kernel.run(max_events=2_000_000)  # strict sanitizer: raises if dirty
        assert kernel.all_exited
        assert scheduler.forced_admissions >= 1
        assert kernel.sanitizer.ok

    def test_rescue_after_release_forces_waiting_head(self, paper_machine):
        """A fitting period runs first; once it completes and the resource
        drains to idle, rescue_starved force-admits the oversized waiter."""
        from repro.workloads.base import ProcessSpec, Workload

        wl = Workload(
            name="rescue",
            processes=[
                ProcessSpec(name="fits", program=[make_phase(wss_mb=4.0)]),
                ProcessSpec(name="huge", program=[make_phase(wss_mb=100.0)]),
            ],
        )
        ended = []
        kernel, sched = run_kernel(wl, config=paper_machine, ended=ended)
        assert kernel.all_exited
        assert sched.forced_admissions >= 1
        huge = next(p for p in ended if p.demand_bytes > 50e6)
        assert huge.forced and huge.waited_s > 0  # denied first, rescued later


class TestUninstrumentedProcesses:
    def test_plain_processes_ignore_extension(self):
        plain = make_phase(declare_pp=False)
        kernel, sched = run_kernel(make_workload(n_processes=4, phases=[plain]))
        assert kernel.all_exited
        assert sched.predicate.stats.evaluated == 0

    def test_mixed_instrumented_and_plain(self):
        from repro.workloads.base import ProcessSpec, Workload

        wl = Workload(
            name="mixed",
            processes=[
                ProcessSpec(name="inst", program=[make_phase(wss_mb=5.0)]),
                ProcessSpec(name="plain", program=[make_phase(declare_pp=False)]),
            ],
        )
        ended = []
        kernel, sched = run_kernel(wl, ended=ended)
        assert kernel.all_exited
        assert len(ended) == 1


class TestDescribe:
    def test_describe_mentions_policy(self):
        sched = RdaScheduler(policy=StrictPolicy())
        assert "Strict" in sched.describe()
        assert sched.name == "RDA: Strict"
