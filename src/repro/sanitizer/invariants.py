"""The invariant checkers — a "KSAN" for the simulated kernel.

Each checker continuously asserts one correctness property the paper claims
(§3.1, §3.4) but the implementation only enforces implicitly:

``demand-bound``
    Aggregate admitted LLC demand never exceeds the policy bound: capacity
    for RDA:Strict, ``x`` × capacity for RDA:Compromise.  Starvation-guard
    forced admissions deliberately bypass the predicate and are exempt.
``lost-wakeup``
    Every ``PP_DENY`` is eventually followed by a ``PP_WAKE`` or the
    thread's ``EXIT`` — the waitlist plus kernel wait queue never lose a
    wakeup, and no waiter starves past the end of the simulation.
``queue-exclusivity``
    A thread is never simultaneously on the run queue and a wait queue,
    and thread states agree with queue membership at every quiescent point.
``dispatch-overlap``
    Per-core dispatch intervals never overlap: a core is released (preempt,
    deny, barrier, exit) before the next dispatch, and no thread occupies
    two cores at once.
``conservation``
    Every ``pp_begin`` admission has a matching release: charges and
    releases balance, the resource monitor's usage equals the sum of
    outstanding reservations, and everything drains to zero at exit.

Checkers observe three streams wired up by
:class:`~repro.sanitizer.sanitizer.KernelSanitizer`: the kernel trace-event
stream (``on_event``), quiescent points after every engine event
(``on_quiescent``), and the resource monitor's charge/release/resize ledger
(``on_charge`` / ``on_release`` / ``on_resize``).  ``demand-bound`` and
``conservation`` need only the ledger, so they also watch the admission
service's core, which has no kernel.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Type

from ..core.progress_period import PeriodRequest, PeriodState, ResourceKind
from ..errors import SanitizerError
from ..sim.process import ThreadState
from ..sim.tracing import TraceEvent, TraceKind

__all__ = [
    "InvariantChecker",
    "DemandBoundChecker",
    "LostWakeupChecker",
    "QueueExclusivityChecker",
    "DispatchOverlapChecker",
    "ConservationChecker",
    "CHECKERS",
    "register_checker",
    "default_checkers",
]

#: slack for float comparisons against byte quantities
_EPS_BYTES = 1e-6


class InvariantChecker:
    """Base class: bind to a sanitizer, observe streams, report violations.

    Subclasses override any subset of the observation hooks.  Ongoing-state
    invariants (a condition that stays broken across many events) should
    report through :meth:`report_once` with a stable key so one root cause
    produces one violation, not one per subsequent event.
    """

    #: registry name; also the ``invariant`` field of reported violations
    name = "invariant"

    def __init__(self) -> None:
        self.sanitizer = None
        self._latched: set = set()

    # ------------------------------------------------------------------
    def bind(self, sanitizer) -> None:
        """Attach to a sanitizer (grants access to kernel and scheduler)."""
        self.sanitizer = sanitizer

    @property
    def kernel(self):
        return self.sanitizer.kernel

    @property
    def scheduler(self):
        """The RDA extension, or None when running the default policy."""
        return self.sanitizer.scheduler

    # ------------------------------------------------------------------
    # observation hooks
    # ------------------------------------------------------------------
    def on_event(self, event: TraceEvent) -> None:
        """A kernel trace event was emitted."""

    def on_quiescent(self, now: float) -> None:
        """An engine event finished; global state is consistent."""

    def on_charge(self, request: PeriodRequest, added_bytes: int) -> None:
        """The resource monitor charged a period's demand."""

    def on_release(self, request: PeriodRequest, removed_bytes: int) -> None:
        """The resource monitor released a period's demand."""

    def on_resize(self, request: PeriodRequest, new_bytes: int, delta: int) -> None:
        """A running period's charge moved by ``delta`` to ``new_bytes``;
        its request is rewritten to ``demand_bytes=new_bytes``."""

    def finalize(self, now: float) -> None:
        """The simulation completed; check end-of-run invariants."""

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    def report(self, message: str, tid: Optional[int] = None) -> None:
        self.sanitizer.report(self.name, message, tid=tid)

    def report_once(self, key, message: str, tid: Optional[int] = None) -> None:
        """Report a keyed ongoing violation exactly once while it persists."""
        if key in self._latched:
            return
        self._latched.add(key)
        self.report(message, tid=tid)

    def clear(self, key) -> None:
        """The keyed condition healed; a future recurrence reports again."""
        self._latched.discard(key)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
CHECKERS: Dict[str, Type[InvariantChecker]] = {}


def register_checker(cls: Type[InvariantChecker]) -> Type[InvariantChecker]:
    """Class decorator adding a checker to the pluggable registry."""
    if not cls.name or cls.name == InvariantChecker.name:
        raise SanitizerError(f"checker {cls.__name__} needs a distinct name")
    if cls.name in CHECKERS:
        raise SanitizerError(f"duplicate checker name {cls.name!r}")
    CHECKERS[cls.name] = cls
    return cls


def default_checkers(
    only: Optional[list] = None,
) -> list:
    """Fresh instances of every registered checker (or a named subset)."""
    names = list(CHECKERS) if only is None else list(only)
    instances = []
    for name in names:
        try:
            instances.append(CHECKERS[name]())
        except KeyError:
            raise SanitizerError(
                f"unknown checker {name!r}; registered: {sorted(CHECKERS)}"
            ) from None
    return instances


# ----------------------------------------------------------------------
# 1. aggregate admitted demand <= policy bound
# ----------------------------------------------------------------------
@register_checker
class DemandBoundChecker(InvariantChecker):
    """RDA:Strict never oversubscribes the LLC; Compromise stays ≤ x·capacity.

    Starvation-guard admissions bypass the predicate by design (they only
    fire when the resource is otherwise idle), so the demand of running
    *forced* periods is subtracted before comparing against the bound.
    """

    name = "demand-bound"

    def on_quiescent(self, now: float) -> None:
        scheduler = self.scheduler
        if scheduler is None:
            return
        for kind in scheduler.managed_kinds:
            state = scheduler.resources.state(kind)
            bound = scheduler.policy.demand_bound(state.capacity_bytes)
            usage = state.usage_bytes
            if usage > bound + _EPS_BYTES:  # only then scan for exemptions
                usage -= sum(
                    p.demand_bytes for p in scheduler.registry
                    if p.forced and p.state is PeriodState.RUNNING
                    and p.resource is kind
                )
            if usage > bound + _EPS_BYTES:
                self.report_once(
                    ("over", kind),
                    f"{kind}: admitted demand {usage}B exceeds policy bound "
                    f"{bound:.0f}B ({scheduler.policy.name}, capacity "
                    f"{state.capacity_bytes}B)",
                )
            else:
                self.clear(("over", kind))


# ----------------------------------------------------------------------
# 2. no lost wakeups / no starvation
# ----------------------------------------------------------------------
@register_checker
class LostWakeupChecker(InvariantChecker):
    """Every PP_DENY is eventually followed by PP_WAKE or EXIT.

    Args:
        max_wait_s: optional bound on how long (simulated) a denied thread
            may stay parked while the simulation continues; ``None`` only
            checks at end of run (a waiter outliving the simulation *is*
            a lost wakeup, since every period completes by then).
    """

    name = "lost-wakeup"

    def __init__(self, max_wait_s: Optional[float] = None) -> None:
        super().__init__()
        self.max_wait_s = max_wait_s
        #: tid -> (deny time, phase detail)
        self.pending: Dict[int, tuple] = {}

    def on_event(self, event: TraceEvent) -> None:
        if event.kind is TraceKind.PP_DENY:
            self.pending[event.tid] = (event.time_s, event.detail)
        elif event.kind is TraceKind.PP_WAKE:
            if self.pending.pop(event.tid, None) is None:
                self.report(
                    "pp_wake without a preceding pp_deny (spurious wakeup)",
                    tid=event.tid,
                )
        elif event.kind is TraceKind.EXIT:
            self.pending.pop(event.tid, None)

    def on_quiescent(self, now: float) -> None:
        if self.max_wait_s is None:
            return
        for tid, (denied_at, detail) in self.pending.items():
            if now - denied_at > self.max_wait_s:
                self.report_once(
                    ("starved", tid),
                    f"thread denied at t={denied_at:.9f} ({detail!r}) still "
                    f"waiting after {now - denied_at:.6f}s > "
                    f"max_wait_s={self.max_wait_s}",
                    tid=tid,
                )

    def finalize(self, now: float) -> None:
        for tid, (denied_at, detail) in sorted(self.pending.items()):
            self.report(
                f"pp_deny at t={denied_at:.9f} ({detail!r}) never followed by "
                "pp_wake or exit — lost wakeup / starvation",
                tid=tid,
            )


# ----------------------------------------------------------------------
# 3. run queue and wait queues are mutually exclusive
# ----------------------------------------------------------------------
@register_checker
class QueueExclusivityChecker(InvariantChecker):
    """Thread states agree with queue membership at every quiescent point."""

    name = "queue-exclusivity"

    def on_quiescent(self, now: float) -> None:
        kernel = self.kernel
        runqueue = kernel.cfs.queue
        on_core = {
            c.thread.tid for c in kernel.cores if c.thread is not None
        }
        for process in kernel.processes:
            for thread in process.threads:
                tid = thread.tid
                queued = thread in runqueue
                state = thread.state
                if queued and state in (
                    ThreadState.PP_WAIT,
                    ThreadState.BLOCKED,
                    ThreadState.RUNNING,
                    ThreadState.EXITED,
                ):
                    self.report_once(
                        ("runqueue", tid, state),
                        f"thread in state {state.value} is on the run queue",
                        tid=tid,
                    )
                elif not queued:
                    self.clear(("runqueue", tid, state))
                if state is ThreadState.RUNNING and tid not in on_core:
                    self.report_once(
                        ("no-core", tid),
                        "thread in state running is not on any core",
                        tid=tid,
                    )
                elif tid in on_core:
                    self.clear(("no-core", tid))
        for (pid, phase_idx), queue in kernel._barriers.items():
            for thread in queue.waiters():
                if thread in runqueue:
                    self.report_once(
                        ("both", thread.tid, pid, phase_idx),
                        f"thread parked on wait queue {queue.name!r} is "
                        "simultaneously on the run queue",
                        tid=thread.tid,
                    )
                if thread.state is not ThreadState.BLOCKED:
                    self.report_once(
                        ("state", thread.tid, pid, phase_idx),
                        f"thread parked on wait queue {queue.name!r} is in "
                        f"state {thread.state.value}, expected blocked",
                        tid=thread.tid,
                    )


# ----------------------------------------------------------------------
# 4. per-core dispatch intervals never overlap
# ----------------------------------------------------------------------
@register_checker
class DispatchOverlapChecker(InvariantChecker):
    """A core is released before its next dispatch; one core per thread."""

    name = "dispatch-overlap"

    #: events that end a thread's occupancy of its core
    _RELEASES = (
        TraceKind.PREEMPT,
        TraceKind.PP_DENY,
        TraceKind.BARRIER_WAIT,
        TraceKind.EXIT,
    )

    def __init__(self) -> None:
        super().__init__()
        self.occupant: Dict[int, int] = {}  # core -> tid
        self.core_of: Dict[int, int] = {}  # tid -> core

    def on_event(self, event: TraceEvent) -> None:
        if event.kind is TraceKind.DISPATCH:
            core, tid = event.core, event.tid
            if core is None:
                self.report("dispatch event without a core", tid=tid)
                return
            holder = self.occupant.get(core)
            if holder is not None:
                self.report(
                    f"dispatch on core {core} overlaps the interval of "
                    f"tid {holder} (never released)",
                    tid=tid,
                )
            elsewhere = self.core_of.get(tid)
            if elsewhere is not None and elsewhere != core:
                self.report(
                    f"thread dispatched on core {core} while still occupying "
                    f"core {elsewhere}",
                    tid=tid,
                )
            self.occupant[core] = tid
            self.core_of[tid] = core
        elif event.kind in self._RELEASES and event.core is not None:
            core, tid = event.core, event.tid
            holder = self.occupant.get(core)
            if holder == tid:
                del self.occupant[core]
                self.core_of.pop(tid, None)
            elif holder is not None:
                self.report(
                    f"{event.kind.value} on core {core} by tid {tid}, but the "
                    f"core's dispatch interval belongs to tid {holder}",
                    tid=tid,
                )


# ----------------------------------------------------------------------
# 5. conservation of reserved capacity
# ----------------------------------------------------------------------
@register_checker
class ConservationChecker(InvariantChecker):
    """Charges and releases balance; usage equals outstanding reservations."""

    name = "conservation"

    def __init__(self) -> None:
        super().__init__()
        #: multiset of open charges — requests are frozen value objects, so
        #: identical concurrent periods simply count twice
        self.open: Dict[PeriodRequest, int] = {}
        self.net_bytes: Dict[ResourceKind, float] = {}  # charged − released

    def on_charge(self, request: PeriodRequest, added_bytes: int) -> None:
        self.open[request] = self.open.get(request, 0) + 1
        kind = request.resource
        self.net_bytes[kind] = self.net_bytes.get(kind, 0.0) + added_bytes

    def on_release(self, request: PeriodRequest, removed_bytes: int) -> None:
        kind = request.resource
        held = self.open.get(request, 0)
        if held <= 0:
            self.report(
                f"{kind}: release of {request.demand_bytes}B "
                f"({request.label or 'unlabelled'}) without a matching "
                "charge (double release?)"
            )
        elif held == 1:
            del self.open[request]
        else:
            self.open[request] = held - 1
        self.net_bytes[kind] = self.net_bytes.get(kind, 0.0) - removed_bytes
        if self.net_bytes[kind] < -_EPS_BYTES:
            self.report(
                f"{kind}: net reserved capacity went negative "
                f"({self.net_bytes[kind]:.0f}B)"
            )

    def on_resize(self, request: PeriodRequest, new_bytes: int, delta: int) -> None:
        # The open charge moves to the rewritten request, so the period's
        # eventual release finds it.
        self.on_release(request, max(0, -delta))
        self.on_charge(replace(request, demand_bytes=new_bytes), max(0, delta))

    def on_quiescent(self, now: float) -> None:
        scheduler = self.scheduler
        if scheduler is None:
            return
        for kind in scheduler.managed_kinds:
            usage = scheduler.resources.state(kind).usage_bytes
            expected = self.net_bytes.get(kind, 0.0)
            if abs(usage - expected) > _EPS_BYTES:
                self.report_once(
                    ("drift", kind),
                    f"{kind}: resource monitor reports {usage}B in use but "
                    f"the charge/release ledger sums to {expected:.0f}B — "
                    "usage mutated outside increment_load/release_load",
                )
            else:
                self.clear(("drift", kind))

    def finalize(self, now: float) -> None:
        scheduler = self.scheduler
        leaked: Dict[ResourceKind, int] = {}
        for request, held in self.open.items():
            leaked[request.resource] = leaked.get(request.resource, 0) + held
        for kind in sorted(set(leaked) | set(self.net_bytes), key=str):
            if leaked.get(kind, 0):
                self.report(
                    f"{kind}: {leaked[kind]} reservation(s) never released — "
                    "pp_begin without a matching pp_end/exit"
                )
            net = self.net_bytes.get(kind, 0.0)
            if abs(net) > _EPS_BYTES:
                self.report(
                    f"{kind}: {net:.0f}B still reserved at end of simulation"
                )
        if scheduler is None:
            return
        for kind in scheduler.managed_kinds:
            usage = scheduler.resources.state(kind).usage_bytes
            if usage != 0:
                self.report(
                    f"{kind}: usage is {usage}B after all threads exited"
                )
        if len(scheduler.registry) != 0:
            self.report(
                f"{len(scheduler.registry)} progress period(s) still "
                "registered after all threads exited"
            )
        if len(scheduler.waitlist) != 0:
            self.report(
                f"{len(scheduler.waitlist)} period(s) still parked on the "
                "waitlist after all threads exited"
            )
