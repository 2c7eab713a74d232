"""The scheduling predicate — Algorithm 1 of the paper.

::

    function TrySchedule(pp, resource)
        remaining <- resource.capacity - resource.usage
        outcome   <- remaining - pp.demand
        runnable  <- apply_policy(outcome, resource)
        if runnable then
            increment_load(pp.demand)
            schedule(get_process(pp))
        else
            waitlist(pp)
        end if
    end function

The predicate itself only *decides and charges*; parking on the waitlist and
pausing/resuming threads is the progress monitor's job, so ``try_schedule``
returns a :class:`Decision` for the caller to act on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .progress_period import ProgressPeriod
from .policy import SchedulingPolicy
from .resource_monitor import ResourceMonitor

__all__ = ["Decision", "SchedulingPredicate"]


class Decision(enum.Enum):
    """Outcome of Algorithm 1 for one progress period."""

    RUN = "run"
    WAIT = "wait"

    @property
    def runnable(self) -> bool:
        return self is Decision.RUN


@dataclass
class PredicateStats:
    """Counters for reporting and tests.

    Only evaluated periods count: a waiter the waitlist drain skips
    because a smaller need was already refused is in none of them.
    """

    evaluated: int = 0
    admitted: int = 0
    denied: int = 0


class SchedulingPredicate:
    """Decides whether a thread may run at each new resource behaviour."""

    def __init__(self, resources: ResourceMonitor, policy: SchedulingPolicy) -> None:
        self.resources = resources
        self.policy = policy
        self.stats = PredicateStats()

    def evaluate(self, period: ProgressPeriod) -> Decision:
        """Apply Algorithm 1 *without* charging the load (pure decision)."""
        resource = self.resources.state(period.resource)
        # Shared working sets already charged by a sibling add nothing.
        effective_demand = resource.would_add(period.request)
        remaining = resource.capacity_bytes - resource.usage_bytes
        outcome = remaining - effective_demand
        runnable = self.policy.allows(outcome, resource)
        self.stats.evaluated += 1
        return Decision.RUN if runnable else Decision.WAIT

    def try_schedule(self, period: ProgressPeriod) -> Decision:
        """Algorithm 1: decide, and on admission charge the resource load."""
        decision = self.evaluate(period)
        if decision.runnable:
            self.resources.increment_load(period.request)
            self.stats.admitted += 1
        else:
            self.stats.denied += 1
        return decision
