"""AdmissionCore: the paper's figure-2 admission layer, built once.

The resource monitor, the Algorithm-1 predicate, the waitlist and the
progress monitor, plus the starvation guard that spans them.  The simulator
(:class:`~repro.core.rda.RdaScheduler`) and the admission service
(:class:`~repro.serve.server.AdmissionService`) both subclass it, so they
run one implementation of the paper's admission layer.  It knows nothing of
kernels or sockets: callers drive :attr:`monitor` and act on its periods.
"""

from __future__ import annotations

from typing import Callable, Optional

from .policy import SchedulingPolicy
from .predicate import SchedulingPredicate
from .progress_monitor import ProgressMonitor
from .progress_period import PeriodState, ProgressPeriod, ResourceKind
from .registry import PeriodRegistry
from .resource_monitor import ResourceMonitor
from .waitlist import Waitlist

__all__ = ["AdmissionCore"]


class AdmissionCore:
    """Resource monitor, predicate, registry, waitlist and progress monitor.

    Args:
        clock: time source stamped on period begin/admit/end.
        strict_fifo: drain the waitlist in strict arrival order.
        starvation_guard: admit a waiting period when its resource is
            completely idle even if the policy rejects it.  The paper
            assumes every individual working set fits in the cache (§3.4
            constraint 1), so the guard never fires in its experiments; it
            turns a mis-annotated application into a slow one instead of a
            deadlocked one.
        extra_resources: further managed capacities by kind (the framework
            is "configurable to allow multiple hardware resources to be
            targeted", §6).
    """

    def __init__(
        self,
        policy: SchedulingPolicy,
        llc_capacity: int,
        clock: Callable[[], float],
        strict_fifo: bool = False,
        starvation_guard: bool = True,
        extra_resources: Optional[dict[ResourceKind, int]] = None,
    ) -> None:
        self.policy = policy
        self.resources = ResourceMonitor()
        self.llc = self.resources.register(ResourceKind.LLC, llc_capacity)
        self.managed_kinds: list[ResourceKind] = [ResourceKind.LLC]
        for kind, capacity in (extra_resources or {}).items():
            self.resources.register(kind, capacity)
            self.managed_kinds.append(kind)
        self.predicate = SchedulingPredicate(self.resources, policy)
        self.registry = PeriodRegistry()
        self.waitlist = Waitlist(strict_fifo=strict_fifo)
        self.monitor = ProgressMonitor(
            resources=self.resources,
            predicate=self.predicate,
            clock=clock,
            registry=self.registry,
            waitlist=self.waitlist,
        )
        self.starvation_guard = starvation_guard
        #: admissions the starvation guard forced past the policy
        self.forced_admissions = 0

    # ------------------------------------------------------------------
    def force_if_idle(self, period: ProgressPeriod) -> None:
        """The begin-time guard: a period denied while its resource holds
        no demand at all would wait forever, so admit it anyway."""
        if (
            self.starvation_guard
            and period.state is PeriodState.WAITING
            and self.resources.state(period.resource).usage_bytes == 0
        ):
            self.force_admit(period)

    def force_admit(self, period: ProgressPeriod) -> None:
        """Admit a waiting period past the policy, and count it."""
        self.monitor.force_admit(period)
        self.forced_admissions += 1

    def rescue_starved(self) -> list[ProgressPeriod]:
        """After releases, never leave an idle resource with a waiting
        queue: force-admit the head waiter of each idle resource."""
        rescued: list[ProgressPeriod] = []
        if not self.starvation_guard:
            return rescued
        for kind in self.managed_kinds:
            state = self.resources.state(kind)
            head = self.waitlist.peek(kind)
            if state.usage_bytes == 0 and head is not None:
                self.force_admit(head)
                rescued.append(head)
        return rescued
