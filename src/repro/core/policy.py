"""Scheduling policies (paper §3.3).

A policy dictates the limits of each hardware resource.  The predicate
(Algorithm 1) computes ``outcome = remaining − demand`` and asks the policy
whether that outcome is acceptable:

* :class:`StrictPolicy` (RDA:Strict) — denies any process whose additional
  demand would put the resource above maximum capacity (``outcome ≥ 0``).
* :class:`CompromisePolicy` (RDA:Compromise) — allows usage up to ``x`` times
  capacity where ``x`` is the oversubscription factor (the paper uses 2).
* :class:`AlwaysAdmitPolicy` — degenerate policy equivalent to the default
  OS scheduler (useful as an in-framework baseline and for tests).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..errors import ConfigError
from .resource_monitor import ResourceState

__all__ = [
    "SchedulingPolicy",
    "StrictPolicy",
    "CompromisePolicy",
    "AlwaysAdmitPolicy",
]


class SchedulingPolicy(ABC):
    """Decides whether a progress period may run given the resource state."""

    #: short name used in reports ("Linux Default", "RDA: Strict", ...)
    name: str = "policy"

    @abstractmethod
    def allows(self, outcome_bytes: float, resource: ResourceState) -> bool:
        """Apply the policy to ``outcome = remaining − demand`` (Algorithm 1).

        For a fixed resource state the answer must be non-decreasing in
        ``outcome_bytes``: if an outcome is refused, every smaller one is
        too.  The waitlist drain relies on it to skip, unevaluated, every
        waiter needing at least as much as one already refused.

        Args:
            outcome_bytes: space that would remain free (possibly negative)
                if the candidate period were admitted.
            resource: the targeted resource's capacity and current usage.
        """

    def demand_bound(self, capacity_bytes: int) -> float:
        """Upper bound the policy places on aggregate admitted demand.

        The runtime sanitizer asserts that the resource monitor's usage
        never exceeds this bound (excluding starvation-guard forced
        admissions).  Policies without a hard ceiling return ``inf``.
        """
        return math.inf

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


@dataclass(frozen=True)
class StrictPolicy(SchedulingPolicy):
    """RDA:Strict — maximize hardware resource efficiency.

    Denies any process from running if the additional resource demand would
    put a hardware resource above maximum capacity.  Intended to result in
    the least energy consumed, possibly at a performance cost.
    """

    name: str = "RDA: Strict"

    def allows(self, outcome_bytes: float, resource: ResourceState) -> bool:
        return outcome_bytes >= 0

    def demand_bound(self, capacity_bytes: int) -> float:
        return float(capacity_bytes)


@dataclass(frozen=True)
class CompromisePolicy(SchedulingPolicy):
    """RDA:Compromise — balance efficiency against concurrency.

    Allows a process to run as long as adding its demand keeps usage within
    ``oversubscription`` times the resource's capacity.  The paper configures
    the factor to 2, "shown to be effective in attaining the best balance
    between energy efficiency and performance".
    """

    oversubscription: float = 2.0
    name: str = "RDA: Compromise"

    def __post_init__(self) -> None:
        if self.oversubscription < 1.0:
            raise ConfigError(
                f"oversubscription factor must be >= 1, got {self.oversubscription}"
            )

    def allows(self, outcome_bytes: float, resource: ResourceState) -> bool:
        # usage + demand <= x * capacity  <=>  outcome >= -(x-1) * capacity
        slack = (self.oversubscription - 1.0) * resource.capacity_bytes
        return outcome_bytes >= -slack

    def demand_bound(self, capacity_bytes: int) -> float:
        return self.oversubscription * capacity_bytes


@dataclass(frozen=True)
class AlwaysAdmitPolicy(SchedulingPolicy):
    """Admit everything — equivalent to scheduling on the default OS policy."""

    name: str = "Always Admit"

    def allows(self, outcome_bytes: float, resource: ResourceState) -> bool:
        return True
