"""RdaScheduler: the demand-aware extension wired into the kernel.

This class is the top of figure 2: it runs the admission layer of
:class:`~repro.core.admission.AdmissionCore` and implements the kernel's
:class:`~repro.sim.kernel.SchedulingExtension` hook so that progress-period
transitions translate into pause (wait queue) and resume (wake event)
operations on the simulated Linux scheduler.

The kernel ignores processes that never call the API — they schedule under
the default policy untouched, exactly as in the paper.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import MachineConfig, default_machine_config
from ..sim.kernel import AdmissionDecision, Kernel, SchedulingExtension
from ..sim.process import Thread
from .admission import AdmissionCore
from .policy import SchedulingPolicy, StrictPolicy
from .progress_period import PeriodRequest, PeriodState, ResourceKind

__all__ = ["RdaScheduler"]


class RdaScheduler(AdmissionCore, SchedulingExtension):
    """Resource-demand-aware scheduling extension (the paper's system).

    Args:
        policy: admission policy — :class:`~repro.core.policy.StrictPolicy`
            or :class:`~repro.core.policy.CompromisePolicy` (the paper's two
            configurations), or any custom policy.
        config: machine description; the managed LLC capacity comes from
            ``config.llc_capacity``.
        starvation_guard, extra_resources: see
            :class:`~repro.core.admission.AdmissionCore`.
        strict_fifo_waitlist: drain the waitlist in strict arrival order.
    """

    def __init__(
        self,
        policy: Optional[SchedulingPolicy] = None,
        config: Optional[MachineConfig] = None,
        starvation_guard: bool = True,
        extra_resources: Optional[dict[ResourceKind, int]] = None,
        strict_fifo_waitlist: bool = False,
    ) -> None:
        self.config = config or default_machine_config()
        super().__init__(
            policy or StrictPolicy(),
            self.config.llc_capacity,
            lambda: 0.0,  # simulated time once attached to a kernel
            strict_fifo=strict_fifo_waitlist,
            starvation_guard=starvation_guard,
            extra_resources=extra_resources,
        )

    # ------------------------------------------------------------------
    def attach(self, kernel: Kernel) -> None:
        super().attach(kernel)
        self.monitor.clock = lambda: kernel.engine.now

    @property
    def name(self) -> str:
        return self.policy.name

    # ------------------------------------------------------------------
    # SchedulingExtension hooks
    # ------------------------------------------------------------------
    def on_pp_begin(
        self, thread: Thread, request: PeriodRequest
    ) -> tuple[int, AdmissionDecision]:
        period = self.monitor.begin(thread, request)
        self.force_if_idle(period)
        decision = (
            AdmissionDecision.RUN
            if period.state is PeriodState.RUNNING
            else AdmissionDecision.WAIT
        )
        return period.pp_id, decision

    def on_pp_end(self, thread: Thread, pp_id: int) -> Sequence[Thread]:
        _, admitted = self.monitor.end(pp_id)
        admitted.extend(self.rescue_starved())
        return [p.owner for p in admitted]

    def on_thread_exit(self, thread: Thread) -> Sequence[Thread]:
        admitted = self.monitor.abandon_owner(thread)
        admitted.extend(self.rescue_starved())
        return [p.owner for p in admitted]

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line status for logs and reports."""
        return (
            f"RDA[{self.policy.name}] usage={self.llc.usage_bytes}B/"
            f"{self.llc.capacity_bytes}B active={len(self.registry)} "
            f"waiting={len(self.waitlist)}"
        )
