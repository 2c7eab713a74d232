"""The progress monitor (paper §3.1, figures 5 and 6).

Responsibilities, verbatim from the paper:

* communicate with applications (receive ``pp_begin`` / ``pp_end``),
* maintain all progress-period related information (the registry),
* attempt to schedule waiting threads previously blocked due to resource
  constraints (drain the waitlist when capacity frees up).

The monitor is deliberately kernel-agnostic: it records decisions and
returns them; :class:`repro.core.rda.RdaScheduler` translates decisions into
actual thread pause/wake calls on the simulated kernel.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Optional

from ..errors import ProgressPeriodError
from .predicate import Decision, SchedulingPredicate
from .progress_period import PeriodRequest, PeriodState, ProgressPeriod
from .registry import PeriodRegistry
from .resource_monitor import ResourceMonitor
from .waitlist import Waitlist

__all__ = ["ProgressMonitor"]


class ProgressMonitor:
    """Tracks progress-period entry/exit and drives admission decisions."""

    def __init__(
        self,
        resources: ResourceMonitor,
        predicate: SchedulingPredicate,
        clock: Callable[[], float],
        registry: Optional[PeriodRegistry] = None,
        waitlist: Optional[Waitlist] = None,
    ) -> None:
        self.resources = resources
        self.predicate = predicate
        self.clock = clock
        self.registry = registry if registry is not None else PeriodRegistry()
        self.waitlist = waitlist if waitlist is not None else Waitlist()

    # ------------------------------------------------------------------
    # figure 5: application begins a progress period
    def begin(self, owner: object, request: PeriodRequest) -> ProgressPeriod:
        """Handle ``pp_begin``: create, register and try to schedule a period.

        Returns the period; its ``state`` tells the caller whether the owner
        may continue running (``RUNNING``) or must pause (``WAITING``).
        """
        now = self.clock()
        period = ProgressPeriod(request=request, owner=owner, begin_time=now)
        self.registry.add(period)
        decision = self.predicate.try_schedule(period)
        if decision is Decision.RUN:
            period.state = PeriodState.RUNNING
            period.admit_time = now
        else:
            period.state = PeriodState.WAITING
            self.waitlist.park(period)
        return period

    # ------------------------------------------------------------------
    # figure 6: application ends a progress period
    def end(self, pp_id: int) -> tuple[ProgressPeriod, list[ProgressPeriod]]:
        """Handle ``pp_end``: release the demand and re-try waiting periods.

        Returns ``(completed, admitted)`` where ``admitted`` lists the
        previously waiting periods that the freed capacity let in; the
        caller must wake their owners.
        """
        period = self.registry.remove(pp_id)
        if period.state is PeriodState.RUNNING:
            self.resources.release_load(period.request)
        elif period.state is PeriodState.WAITING:
            # The owner is blocked, so a well-formed application cannot end a
            # waiting period; tolerate it for robustness (e.g. owner killed).
            self.waitlist.remove(period)
        else:  # pragma: no cover - defensive
            raise ProgressPeriodError(
                f"period #{pp_id} ended in unexpected state {period.state}"
            )
        now = self.clock()
        period.state = PeriodState.COMPLETED
        period.end_time = now
        admitted = self._retry_waiters(period)
        return period, admitted

    def _retry_waiters(self, completed: ProgressPeriod) -> list[ProgressPeriod]:
        """Figure 6's "attempt to schedule waiting threads" step.

        Between two admissions the resource state is fixed, and the policy
        is non-decreasing in ``outcome = remaining − need``, so a waiter
        whose marginal need is at least one the predicate has already
        rejected is rejected too: it is skipped without evaluating (and
        without counting in ``predicate.stats``).
        """
        now = self.clock()
        resource = completed.resource
        if not self.waitlist.waiting_on(resource):
            return []
        state = self.predicate.resources.state(resource)
        floor = math.inf  # smallest need rejected since the last admission

        def admit(p: ProgressPeriod) -> bool:
            nonlocal floor
            need = state.would_add(p.request)
            if need >= floor:
                return False
            if self.predicate.try_schedule(p) is Decision.RUN:
                floor = math.inf
                return True
            floor = need
            return False

        admitted = self.waitlist.drain_admissible(resource, admit)
        for p in admitted:
            p.state = PeriodState.RUNNING
            p.admit_time = now
        return admitted

    # ------------------------------------------------------------------
    def resize(
        self, pp_id: int, new_demand_bytes: int
    ) -> tuple[ProgressPeriod, list[ProgressPeriod]]:
        """Elastically re-size a RUNNING period's reservation in place.

        Used by the prediction subsystem when a learned working-set
        estimate diverges from the demand a period was admitted on.  The
        charged bytes move to ``new_demand_bytes`` and the period's request
        is rewritten so the eventual ``pp_end`` releases what is charged.
        A shrink frees capacity, so the waitlist is re-tried; returns
        ``(period, admitted)``.
        """
        if new_demand_bytes < 0:
            raise ProgressPeriodError(
                f"resize to negative demand {new_demand_bytes}"
            )
        period = self.registry.get(pp_id)
        if period.state is not PeriodState.RUNNING:
            raise ProgressPeriodError(
                f"period #{pp_id} is {period.state.value}; only RUNNING "
                "periods can be resized"
            )
        delta = self.resources.resize_load(period.request, new_demand_bytes)
        period.request = replace(period.request, demand_bytes=new_demand_bytes)
        admitted: list[ProgressPeriod] = []
        if delta < 0:
            admitted = self._retry_waiters(period)
        return period, admitted

    # ------------------------------------------------------------------
    def cancel(self, pp_id: int) -> tuple[ProgressPeriod, list[ProgressPeriod]]:
        """Withdraw one period before its natural ``pp_end``.

        Used when the period's owner gives up — a parked client timing out,
        or an online caller disconnecting.  A RUNNING period releases its
        demand (and the freed capacity retries the waitlist); a WAITING one
        simply leaves the queue.  Under strict FIFO a waiting head held
        back every waiter behind it, so its leaving retries the waitlist
        too.  Returns ``(cancelled, admitted)``.
        """
        period = self.registry.remove(pp_id)
        admitted: list[ProgressPeriod] = []
        unblocks = False
        if period.state is PeriodState.RUNNING:
            self.resources.release_load(period.request)
        elif period.state is PeriodState.WAITING:
            unblocks = (
                self.waitlist.strict_fifo
                and self.waitlist.peek(period.resource) is period
            )
            self.waitlist.remove(period)
        period.state = PeriodState.COMPLETED
        period.end_time = self.clock()
        if period.admit_time is not None or unblocks:
            admitted = self._retry_waiters(period)
        return period, admitted

    def restore(self, period: ProgressPeriod) -> None:
        """Re-admit a period recovered from a crash-safe journal.

        The period was RUNNING when the previous incarnation of the service
        died: register it and charge its demand without consulting the
        predicate (it was already admitted under the same policy).  The
        ``forced`` flag must be set by the caller *before* this call so the
        demand-bound invariant of any attached sanitizer sees a live forced
        admission the moment usage jumps.
        """
        period.state = PeriodState.RUNNING
        if period.admit_time is None:
            period.admit_time = self.clock()
        self.registry.add(period)
        self.resources.increment_load(period.request)

    def force_admit(self, period: ProgressPeriod) -> None:
        """Starvation-guard admission: bypass the predicate and charge.

        The period leaves the waitlist, its demand is charged, and it is
        flagged ``forced`` so the sanitizer's demand-bound invariant knows
        the policy was deliberately overridden.
        """
        self.waitlist.remove(period)
        # flag forced *before* charging so resource observers (the serve
        # sanitizer) see a live forced admission the moment usage jumps
        period.forced = True
        period.state = PeriodState.RUNNING
        period.admit_time = self.clock()
        self.resources.increment_load(period.request)

    # ------------------------------------------------------------------
    def abandon_owner(self, owner: object) -> list[ProgressPeriod]:
        """Clean up periods left open by a dying thread.

        Releases running demands, unparks waiting ones, and returns any
        waiters admitted by the freed capacity.
        """
        admitted: list[ProgressPeriod] = []
        for period in self.registry.of_owner(owner):
            self.registry.remove(period.pp_id)
            if period.state is PeriodState.RUNNING:
                self.resources.release_load(period.request)
                admitted.extend(self._retry_waiters(period))
            elif period.state is PeriodState.WAITING:
                self.waitlist.remove(period)
            period.state = PeriodState.COMPLETED
            period.end_time = self.clock()
        return admitted

    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        return len(self.registry)

    @property
    def waiting_count(self) -> int:
        return len(self.waitlist)
