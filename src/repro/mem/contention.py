"""Analytical model of shared last-level-cache contention.

This module encodes the single mechanism the paper's evaluation rests on:
when the working sets of co-scheduled processes collectively exceed the
shared LLC, each process keeps only a share of the cache, its reusable
accesses start missing, and both runtime and DRAM energy grow.

Model
-----
Each co-running phase *i* presents an :class:`LlcDemand` with a working-set
size ``w_i`` and a reuse fraction ``r_i`` (the fraction of its LLC accesses
that would hit if the working set were fully resident).  With LLC capacity
``C`` and total co-running demand ``W = Σ w_j``:

* **share**:   ``s_i = w_i``            if ``W ≤ C``
  otherwise    ``s_i = C · w_i / W``    (demand-proportional partitioning,
  the steady state of LRU sharing for similar access rates — see Qureshi &
  Patt's utility curves for the linear-regime approximation)
* **hot fraction**: ``h_i = min(1, (s_i / w_i) ** γ)`` — probability that a
  reusable line *survives until its next touch*.  The exponent ``γ`` (default
  2) models the LRU cliff: residency at a random instant scales with the
  share, but surviving a full reuse distance under eviction pressure falls
  off superlinearly, which is why shared-cache hit rates collapse rather
  than degrade gracefully once working sets overflow.
* **LLC hit probability** of an access that reaches the LLC:
  ``p_hit_i = r_i · h_i``.

Threads of the same process share an address space; demands carry a
``sharing_key`` so one working set held by many sibling threads is counted
once (SPLASH-2 style data sharing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from ..errors import ResourceError

__all__ = ["LlcDemand", "ContentionPoint", "SharedLlcModel"]


@dataclass(frozen=True)
class LlcDemand:
    """LLC demand of one running phase.

    Attributes:
        wss_bytes: working-set size the phase keeps live in the LLC.
        reuse: fraction of the phase's LLC accesses that re-touch the
            working set (0 = pure streaming, 1 = perfect reuse).
        sharing_key: phases carrying the same key share one working set
            (threads of one process working on shared data); ``None`` means
            private.
    """

    wss_bytes: int
    reuse: float
    sharing_key: Optional[Hashable] = None

    def __post_init__(self) -> None:
        if self.wss_bytes < 0:
            raise ResourceError(f"negative working-set size: {self.wss_bytes}")
        if not 0.0 <= self.reuse <= 1.0:
            raise ResourceError(f"reuse must be in [0, 1], got {self.reuse}")


@dataclass(frozen=True)
class ContentionPoint:
    """Resolved contention state for one demand within a co-running set."""

    share_bytes: float
    hot_fraction: float
    total_demand_bytes: int
    oversubscribed: bool

    def hit_probability(self, reuse: float) -> float:
        """Probability that an LLC access with the given reuse fraction hits."""
        return reuse * self.hot_fraction


class SharedLlcModel:
    """Demand-proportional sharing model for the shared LLC.

    >>> model = SharedLlcModel(capacity_bytes=100)
    >>> a = LlcDemand(wss_bytes=80, reuse=0.9)
    >>> b = LlcDemand(wss_bytes=120, reuse=0.9)
    >>> pts = model.resolve([a, b])
    >>> round(pts[0].share_bytes)   # 100 * 80/200
    40
    >>> round(pts[0].hot_fraction, 2)   # (0.5) ** gamma with gamma=2
    0.25
    """

    def __init__(self, capacity_bytes: int, gamma: float = 2.0) -> None:
        if capacity_bytes <= 0:
            raise ResourceError("LLC capacity must be positive")
        if gamma < 1.0:
            raise ResourceError("gamma must be >= 1 (h may not exceed share/wss)")
        self.capacity_bytes = int(capacity_bytes)
        self.gamma = float(gamma)

    # ------------------------------------------------------------------
    def unique_demand_bytes(self, demands: Iterable[LlcDemand]) -> int:
        """Aggregate demand with shared working sets counted once."""
        total = 0
        seen: set[Hashable] = set()
        for d in demands:
            if d.sharing_key is not None:
                if d.sharing_key in seen:
                    continue
                seen.add(d.sharing_key)
            total += d.wss_bytes
        return total

    def resolve(self, demands: Sequence[LlcDemand]) -> list[ContentionPoint]:
        """Compute the contention point of every demand in a co-running set.

        Demands with the same ``sharing_key`` receive identical points and
        their working set is counted once toward the total.  A point depends
        only on the demand's working-set size within one set, so demands of
        equal size share one (frozen) point object.
        """
        total = self.unique_demand_bytes(demands)
        oversub = total > self.capacity_bytes
        scale = 1.0 if not oversub else self.capacity_bytes / total
        points: list[ContentionPoint] = []
        by_wss: dict[int, ContentionPoint] = {}
        for d in demands:
            point = by_wss.get(d.wss_bytes)
            if point is None:
                share = d.wss_bytes * scale
                hot = 1.0 if d.wss_bytes == 0 else min(1.0, scale) ** self.gamma
                point = by_wss[d.wss_bytes] = ContentionPoint(
                    share_bytes=share,
                    hot_fraction=hot,
                    total_demand_bytes=total,
                    oversubscribed=oversub,
                )
            points.append(point)
        return points

    def resolve_grouped(
        self, demands: Mapping[Hashable, LlcDemand]
    ) -> dict[Hashable, ContentionPoint]:
        """Like :meth:`resolve` but keyed by an arbitrary identifier."""
        keys = list(demands.keys())
        points = self.resolve([demands[k] for k in keys])
        return dict(zip(keys, points))

    # ------------------------------------------------------------------
    def hot_fraction(self, demand: LlcDemand, co_runners: Sequence[LlcDemand]) -> float:
        """Hot fraction of ``demand`` when co-running with ``co_runners``."""
        pts = self.resolve([demand, *co_runners])
        return pts[0].hot_fraction

    def fits(self, demands: Sequence[LlcDemand]) -> bool:
        """True when the unique aggregate demand fits in the LLC."""
        return self.unique_demand_bytes(demands) <= self.capacity_bytes
