"""Demand-aware client placement across admission shards.

One :class:`~repro.serve.server.AdmissionServer` bounds aggregate
progress-period demand against a single LLC — the paper's single-socket
mechanism.  Scaling out means running N admission shards (one per
simulated socket) behind a front-end that decides *which* shard each
arriving client charges.  That decision is the scheduling problem
Elasecutor solves with dominant-remaining-resource packing and Affinity
Tailor argues must be fragmentation-aware: a placer that spreads demand
uniformly shatters the free capacity into slivers no large period fits
into, while a demand-aware one keeps whole-period-sized holes open.

This module is the pure decision layer — no sockets, no asyncio — so the
policy is unit-testable and deterministic:

* **Scoring.**  Each shard carries a capacity vector (today ``{llc}``,
  written vector-ready for membw).  A client arrives with a declared or
  predicted demand profile.  Feasible shards (every resource's remaining
  capacity covers the demand) are ranked by the *dominant remaining
  fraction after placement* — ``min_r (remaining_r - demand_r) /
  capacity_r`` — and the placer picks the **tightest fit** (smallest
  dominant remainder), which concentrates small periods and preserves the
  largest holes (best-fit packing).  When no shard fits, the *least*
  loaded shard wins instead (largest dominant remainder): the period will
  park, and it should park where the queue drains first.
* **Determinism.**  Ties are broken by a seeded, fixed permutation of the
  shards, so a placement sequence is a pure function of ``(seed, demand
  profiles, shard capacities)`` — property-tested in
  ``tests/serve/test_placer.py``.
* **Stickiness.**  A known client keeps its shard while that shard is
  alive (its lease, journal entries and idempotency tokens live there);
  a dead shard's clients are re-placed on their next hello.
* **Migration.**  When a shard saturates while another has headroom,
  :meth:`DemandAwarePlacer.migration_target` names the shard a parked
  client should move to; the front-end (``repro.serve.cluster``) performs
  the move by having the client's shard answer its parked begin with
  ``REDIRECT``.
* **Fragmentation.**  :meth:`fragmentation` gauges how scattered the
  cluster's free capacity is: ``1 - largest_free / total_free``.  0 means
  every free byte is one contiguous per-shard hole; values near 1 mean
  the capacity exists but no single shard can host a large period.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..errors import ServeError

__all__ = ["ClusterError", "ShardAddress", "ShardState", "DemandAwarePlacer"]


class ClusterError(ServeError):
    """A cluster/placement layer failure (no live shard, bad spec...)."""


@dataclass(frozen=True)
class ShardAddress:
    """Where one admission shard listens (unix socket or TCP)."""

    name: str
    unix_path: Optional[str] = None
    host: Optional[str] = None
    port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.unix_path is None and (self.host is None or self.port is None):
            raise ClusterError(
                f"shard {self.name!r} needs a unix socket path or host+port"
            )

    def to_fields(self) -> Dict[str, Any]:
        """The address as REDIRECT reply fields."""
        fields: Dict[str, Any] = {"name": self.name}
        if self.unix_path is not None:
            fields["unix_path"] = self.unix_path
        if self.host is not None:
            fields["host"] = self.host
            fields["port"] = self.port
        return fields

    def describe(self) -> str:
        if self.unix_path is not None:
            return f"unix:{self.unix_path}"
        return f"tcp:{self.host}:{self.port}"


@dataclass
class ShardState:
    """The placer's live model of one shard."""

    address: ShardAddress
    #: capacity vector; updated from health observations when they arrive
    capacity: Dict[str, int] = field(default_factory=dict)
    #: last *observed* usage vector (health probes)
    usage: Dict[str, int] = field(default_factory=dict)
    #: demand the placer has assigned here but may not be charged yet
    assigned: Dict[str, int] = field(default_factory=dict)
    #: clients currently placed on this shard -> their demand profile
    clients: Dict[str, Dict[str, int]] = field(default_factory=dict)
    alive: bool = True
    #: a deliberately draining shard stays alive (it is still serving its
    #: grace window) but must not receive new placements
    draining: bool = False
    waiting: int = 0
    open_periods: int = 0

    @property
    def name(self) -> str:
        return self.address.name

    @property
    def placeable(self) -> bool:
        """Eligible for new placements: alive and not draining."""
        return self.alive and not self.draining

    def charge_estimate(self, resource: str) -> int:
        """The conservative view: max of observed usage and assignment."""
        return max(self.usage.get(resource, 0), self.assigned.get(resource, 0))

    def remaining(self, resource: str) -> int:
        return self.capacity.get(resource, 0) - self.charge_estimate(resource)

    def dominant_remaining_fraction(
        self, demand: Optional[Dict[str, int]] = None
    ) -> float:
        """``min_r (remaining_r - demand_r) / capacity_r`` over resources.

        Negative values mean the shard is (or would be) oversubscribed on
        its bottleneck resource.  With no capacity known yet the shard
        scores worst (it cannot be ranked until a health probe lands).
        """
        if not self.capacity:
            return float("-inf")
        worst = float("inf")
        for resource, cap in self.capacity.items():
            if cap <= 0:
                continue
            d = (demand or {}).get(resource, 0)
            worst = min(worst, (self.remaining(resource) - d) / cap)
        return worst if worst != float("inf") else float("-inf")

    def fits(self, demand: Dict[str, int]) -> bool:
        return self.capacity and all(
            self.remaining(r) >= d for r, d in demand.items()
        )

    def fits_observed(self, demand: Dict[str, int]) -> bool:
        """Headroom by *observed* usage only, ignoring reservations.

        Placement scores conservatively (max of usage and assigned), but
        migration must not: a parked client's own demand sits in
        ``assigned``, so the reservation-based :meth:`fits` would judge
        its home shard full by construction, and standing reservations of
        long-gone clients would veto targets with real free capacity.
        The shard's own admission control is the final word anyway — a
        mis-predicted migration just parks again, it cannot oversubscribe.
        """
        return self.capacity and all(
            self.capacity.get(r, 0) - self.usage.get(r, 0) >= d
            for r, d in demand.items()
        )


class DemandAwarePlacer:
    """Dominant-remaining-resource client placement (Elasecutor-style)."""

    def __init__(self, shards: Sequence[ShardState], seed: int = 0) -> None:
        if not shards:
            raise ClusterError("a cluster needs at least one shard")
        names = [s.name for s in shards]
        if len(set(names)) != len(names):
            raise ClusterError(f"duplicate shard names in {names}")
        self.shards: Dict[str, ShardState] = {s.name: s for s in shards}
        self.seed = seed
        #: seeded fixed tie-break permutation — placement is a pure
        #: function of (seed, demand profiles, shard capacities)
        order = list(names)
        random.Random(seed).shuffle(order)
        self._tiebreak = {name: i for i, name in enumerate(order)}
        #: client -> shard name (sticky while the shard lives)
        self.assignments: Dict[str, str] = {}
        self.placements_total = 0
        self.replacements_total = 0
        self.revivals_total = 0

    # ------------------------------------------------------------------
    # observations
    # ------------------------------------------------------------------
    def observe(
        self,
        name: str,
        usage: Optional[Dict[str, int]] = None,
        capacity: Optional[Dict[str, int]] = None,
        waiting: Optional[int] = None,
        open_periods: Optional[int] = None,
        alive: bool = True,
    ) -> None:
        """Fold one health observation into the shard model."""
        shard = self.shards[name]
        shard.alive = alive
        if usage is not None:
            shard.usage = dict(usage)
        if capacity is not None:
            shard.capacity = dict(capacity)
        if waiting is not None:
            shard.waiting = waiting
        if open_periods is not None:
            shard.open_periods = open_periods

    def mark_dead(self, name: str) -> None:
        self.shards[name].alive = False

    def revive(self, name: str) -> None:
        """Re-register a shard that came back (the inverse of
        :meth:`mark_dead`): it is alive, done draining, and eligible for
        placements again.  Usage/capacity refresh on the next probe."""
        shard = self.shards[name]
        shard.alive = True
        shard.draining = False
        self.revivals_total += 1

    def mark_draining(self, name: str, draining: bool = True) -> None:
        """Flag a shard as deliberately draining: it keeps serving its
        grace window but stops receiving new placements, and sticky
        clients re-place away from it on their next hello."""
        self.shards[name].draining = draining

    def alive_shards(self) -> List[ShardState]:
        return [s for s in self.shards.values() if s.alive]

    def placeable_shards(self) -> List[ShardState]:
        return [s for s in self.shards.values() if s.placeable]

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _rank_key(self, shard: ShardState, demand: Dict[str, int]):
        """Sort key: feasible-and-tightest first, then least loaded.

        Feasible shards sort by *ascending* post-placement dominant
        remainder (best fit); infeasible ones come after, by *descending*
        remainder (least oversubscribed parks shortest).  The seeded
        permutation breaks exact ties deterministically.
        """
        frac = shard.dominant_remaining_fraction(demand)
        if shard.fits(demand):
            return (0, frac, self._tiebreak[shard.name])
        return (1, -frac, self._tiebreak[shard.name])

    def place(
        self, client_id: str, demand: Optional[Dict[str, int]] = None
    ) -> ShardState:
        """Assign (or re-confirm) the shard ``client_id`` should speak to.

        Sticky: a client keeps its shard while that shard is placeable
        (alive and not draining).  Raises :class:`ClusterError` when no
        shard is placeable.
        """
        demand = dict(demand or {})
        current = self.assignments.get(client_id)
        if current is not None:
            shard = self.shards[current]
            if shard.placeable:
                self._note_demand(shard, client_id, demand)
                return shard
            self._unassign(client_id)
            self.replacements_total += 1
        candidates = self.placeable_shards()
        if not candidates:
            raise ClusterError("no live admission shard to place on")
        shard = min(candidates, key=lambda s: self._rank_key(s, demand))
        self.assignments[client_id] = shard.name
        self._note_demand(shard, client_id, demand)
        self.placements_total += 1
        return shard

    def _note_demand(
        self, shard: ShardState, client_id: str, demand: Dict[str, int]
    ) -> None:
        """Track the client's demand profile as assigned capacity.

        The profile is the per-resource *maximum* demand this client has
        declared — a conservative standing reservation used for scoring
        until the shard's observed usage catches up.
        """
        profile = shard.clients.setdefault(client_id, {})
        for resource, d in demand.items():
            profile[resource] = max(profile.get(resource, 0), d)
        self._recompute_assigned(shard)

    def _recompute_assigned(self, shard: ShardState) -> None:
        assigned: Dict[str, int] = {}
        for profile in shard.clients.values():
            for resource, d in profile.items():
                assigned[resource] = assigned.get(resource, 0) + d
        shard.assigned = assigned

    def _unassign(self, client_id: str) -> None:
        name = self.assignments.pop(client_id, None)
        if name is None:
            return
        shard = self.shards[name]
        if shard.clients.pop(client_id, None) is not None:
            self._recompute_assigned(shard)

    def forget(self, client_id: str) -> None:
        """Drop a client (disconnected past its lease, or migrated away)."""
        self._unassign(client_id)

    def release(self, client_id: str) -> None:
        """Clear a disconnected client's standing demand reservation.

        The assignment itself stays (stickiness: its lease, journal
        entries and idempotency tokens live on that shard, and it may
        reconnect), but its demand profile stops counting against the
        shard's scored capacity — observed usage carries the truth from
        here, and a reconnect re-declares the profile.

        A *dead* shard's assignment is purged outright: stickiness to a
        corpse buys nothing (the reconnect re-places anyway) and the
        standing assignment would keep the fragmentation gauges counting
        ghost capacity.
        """
        name = self.assignments.get(client_id)
        if name is None:
            return
        shard = self.shards[name]
        if not shard.alive:
            self._unassign(client_id)
            return
        if shard.clients.pop(client_id, None) is not None:
            self._recompute_assigned(shard)

    def shard_of(self, client_id: str) -> Optional[ShardState]:
        name = self.assignments.get(client_id)
        return self.shards[name] if name is not None else None

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------
    def migration_target(
        self, client_id: str, demand: Dict[str, int]
    ) -> Optional[ShardState]:
        """Where a parked client should move, or ``None`` to stay put.

        A move is justified only when the current shard cannot fit the
        parked demand while another live shard can — the saturates-while-
        another-has-headroom condition.  Fit is judged on *observed*
        usage (see :meth:`ShardState.fits_observed`): reservation-based
        accounting would judge the home shard full by construction, since
        the parked demand itself is reserved there.
        """
        current = self.shard_of(client_id)
        if (
            current is not None and current.placeable
            and current.fits_observed(demand)
        ):
            return None  # the home shard will admit it; parking is transient
        options = [
            s
            for s in self.placeable_shards()
            if (current is None or s.name != current.name)
            and s.fits_observed(demand)
        ]
        if not options:
            return None
        return min(options, key=lambda s: self._rank_key(s, demand))

    def migrate(self, client_id: str, target: ShardState) -> None:
        """Commit a migration decision in the assignment table."""
        demand = {}
        current = self.shard_of(client_id)
        if current is not None:
            demand = dict(current.clients.get(client_id, {}))
        self._unassign(client_id)
        self.assignments[client_id] = target.name
        self._note_demand(target, client_id, demand)

    # ------------------------------------------------------------------
    # gauges
    # ------------------------------------------------------------------
    def fragmentation(self, resource: str = "llc") -> float:
        """``1 - largest_free/total_free`` over live shards (0 when idle)."""
        frees = [
            max(0, s.remaining(resource))
            for s in self.alive_shards()
            if s.capacity.get(resource, 0) > 0
        ]
        total = sum(frees)
        if total <= 0:
            return 0.0
        return 1.0 - max(frees) / total

    def snapshot(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "placements_total": self.placements_total,
            "replacements_total": self.replacements_total,
            "revivals_total": self.revivals_total,
            "fragmentation": self.fragmentation(),
            "shards": {
                name: {
                    "address": shard.address.describe(),
                    "alive": shard.alive,
                    "draining": shard.draining,
                    "capacity": dict(shard.capacity),
                    "usage": dict(shard.usage),
                    "assigned": dict(shard.assigned),
                    "clients": len(shard.clients),
                    "waiting": shard.waiting,
                    "open_periods": shard.open_periods,
                }
                for name, shard in sorted(self.shards.items())
            },
        }
