"""The progress-period concept (paper section 2).

A *progress period* describes a duration of an application's execution whose
resource demand for data storage remains roughly constant.  Its composition
(§2.2) is:

1. instructions marking the execution entry point,
2. instructions marking the execution exit point,
3. the targeted resource,
4. the working-set size, and
5. the relative amount of data reuse.

In this reproduction the entry/exit "instructions" are calls into
:class:`repro.core.api.ProgressPeriodApi` made by the simulated workloads;
the remaining three fields live in :class:`PeriodRequest`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Hashable, Optional

from ..errors import ProgressPeriodError

__all__ = [
    "ResourceKind",
    "ReuseLevel",
    "PeriodRequest",
    "PeriodState",
    "ProgressPeriod",
    "ensure_pp_ids_above",
]


class ResourceKind(enum.Enum):
    """Hardware resources a progress period may target.

    The paper's prototype manages the shared last-level cache; the framework
    is "configurable to allow multiple hardware resources to be targeted"
    (§6), so the enum carries the obvious candidates.
    """

    __hash__ = object.__hash__  # members are singletons: hash by identity

    LLC = "llc"
    MEMORY_BANDWIDTH = "membw"
    DRAM_CAPACITY = "dram"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ReuseLevel(enum.Enum):
    """Relative temporal-locality factor of a working set (§2.2).

    The paper quantizes reuse into three levels (Table 2).  ``fraction``
    gives the canonical numeric interpretation used by the analytical
    contention model: the fraction of LLC accesses that re-touch the
    working set.
    """

    LOW = "low"
    MEDIUM = "med"
    HIGH = "high"

    @property
    def fraction(self) -> float:
        return _REUSE_FRACTION[self]

    @classmethod
    def from_fraction(cls, fraction: float) -> "ReuseLevel":
        """Nearest categorical level for a numeric reuse fraction."""
        if not 0.0 <= fraction <= 1.0:
            raise ProgressPeriodError(f"reuse fraction out of range: {fraction}")
        best = min(cls, key=lambda lvl: abs(lvl.fraction - fraction))
        return best

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_REUSE_FRACTION = {
    ReuseLevel.LOW: 0.10,
    ReuseLevel.MEDIUM: 0.55,
    ReuseLevel.HIGH: 0.92,
}


@dataclass(frozen=True)
class PeriodRequest:
    """The demand declaration passed to ``pp_begin`` (figure 4).

    Attributes:
        resource: hardware resource targeted (``RESOURCE_LLC`` in the paper).
        demand_bytes: working-set size, e.g. ``MB(6.3)`` for DGEMM.
        reuse: relative temporal-locality factor (``REUSE_HIGH`` etc.).
        sharing_key: optional key identifying a working set shared by several
            threads of one process; demands with one key are admitted and
            accounted once (SPLASH-2 threads share their data).
        label: human-readable tag for reports and traces.
    """

    resource: ResourceKind
    demand_bytes: int
    reuse: ReuseLevel
    sharing_key: Optional[Hashable] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.demand_bytes < 0:
            raise ProgressPeriodError(
                f"working-set size must be non-negative, got {self.demand_bytes}"
            )


class PeriodState(enum.Enum):
    """Lifecycle of a progress period inside the scheduler."""

    REQUESTED = "requested"  # pp_begin seen, decision pending
    RUNNING = "running"  # admitted, demand charged to the resource
    WAITING = "waiting"  # denied, parked on the resource waitlist
    COMPLETED = "completed"  # pp_end seen, demand released


_pp_ids = itertools.count(1)


def ensure_pp_ids_above(pp_id: int) -> None:
    """Advance the global period-id counter past ``pp_id``.

    Journal replay (``repro.serve.journal``) restores periods with their
    original identifiers in a *fresh* process, where the counter restarts
    at 1; without this floor a new ``pp_begin`` could reuse a replayed id
    and collide in the registry.
    """
    global _pp_ids
    current = next(_pp_ids)  # never move the counter backwards
    _pp_ids = itertools.count(max(current, pp_id + 1))


@dataclass(eq=False)  # identity semantics: a period is an entity, not a value
class ProgressPeriod:
    """A live progress period tracked by the progress monitor.

    ``pp_id`` is the unique identifier returned to the application by
    ``pp_begin`` and passed back to ``pp_end`` (figure 4, lines 6–8).
    """

    request: PeriodRequest
    owner: object  # the sim Thread that opened the period
    pp_id: int = field(default_factory=lambda: next(_pp_ids))
    state: PeriodState = PeriodState.REQUESTED
    begin_time: float = 0.0
    admit_time: Optional[float] = None
    end_time: Optional[float] = None
    #: admitted by the starvation guard, bypassing the policy predicate —
    #: such periods are exempt from the sanitizer's demand-bound invariant
    forced: bool = False

    @property
    def demand_bytes(self) -> int:
        return self.request.demand_bytes

    @property
    def resource(self) -> ResourceKind:
        return self.request.resource

    @property
    def waited_s(self) -> float:
        """Time spent parked on the waitlist before admission."""
        if self.admit_time is None:
            return 0.0
        return max(0.0, self.admit_time - self.begin_time)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PP #{self.pp_id} {self.request.label or self.resource} "
            f"{self.demand_bytes}B {self.request.reuse} {self.state.value}>"
        )
