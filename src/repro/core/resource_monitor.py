"""The resource monitor (paper §3.2).

Maintains a real-time estimation of how heavily the running processes use
the system's hardware: "a table is used to keep track of the current load
level for the resources, where an entry is allocated to each resource to
save its current usage level".  Updates happen whenever a process enters or
completes a progress period.

Working sets shared by sibling threads (one ``sharing_key``) are charged
once and released when the last holder leaves, mirroring how one process's
threads occupy one copy of their data in the LLC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable

from ..errors import ResourceError
from .progress_period import PeriodRequest, ResourceKind

__all__ = ["ResourceState", "ResourceMonitor"]


@dataclass
class ResourceState:
    """Capacity and live usage of one hardware resource."""

    kind: ResourceKind
    capacity_bytes: int
    usage_bytes: int = 0
    #: refcounts for shared working sets currently charged
    _shared_holders: Dict[Hashable, int] = field(default_factory=dict, repr=False)
    #: bytes charged for each shared key (charged once)
    _shared_bytes: Dict[Hashable, int] = field(default_factory=dict, repr=False)

    @property
    def remaining_bytes(self) -> int:
        """Unused space: ``capacity − usage`` (may be negative when a policy
        permits oversubscription)."""
        return self.capacity_bytes - self.usage_bytes

    @property
    def utilization(self) -> float:
        return self.usage_bytes / self.capacity_bytes if self.capacity_bytes else 0.0

    # ------------------------------------------------------------------
    def charge(self, request: PeriodRequest) -> int:
        """Charge a period's demand; returns the bytes actually added.

        A shared working set is added only for its first holder.
        """
        key = request.sharing_key
        if key is not None:
            holders = self._shared_holders.get(key, 0)
            self._shared_holders[key] = holders + 1
            if holders:
                return 0
            self._shared_bytes[key] = request.demand_bytes
        self.usage_bytes += request.demand_bytes
        return request.demand_bytes

    def release(self, request: PeriodRequest) -> int:
        """Release a period's demand; returns the bytes actually removed."""
        key = request.sharing_key
        if key is not None:
            holders = self._shared_holders.get(key, 0)
            if holders <= 0:
                raise ResourceError(f"release of unheld shared key {key!r}")
            if holders > 1:
                self._shared_holders[key] = holders - 1
                return 0
            del self._shared_holders[key]
            charged = self._shared_bytes.pop(key)
        else:
            charged = request.demand_bytes
        self.usage_bytes -= charged
        if self.usage_bytes < 0:
            raise ResourceError(
                f"{self.kind}: usage went negative ({self.usage_bytes})"
            )
        return charged

    def resize(self, request: PeriodRequest, new_bytes: int) -> int:
        """Re-size a *charged* request in place; returns the signed delta.

        Elastic re-admission (``repro.predict``) shrinks or grows a running
        reservation without releasing it.  For a shared working set the
        stored per-key charge is rewritten (all holders are billed once, so
        one resize covers them); for a private one the delta against the
        request's current demand is applied.  The caller is responsible for
        updating the period's ``PeriodRequest`` so the eventual release
        matches what is now charged.
        """
        if new_bytes < 0:
            raise ResourceError(f"{self.kind}: resize to negative demand {new_bytes}")
        key = request.sharing_key
        if key is not None:
            if self._shared_holders.get(key, 0) <= 0:
                raise ResourceError(f"resize of unheld shared key {key!r}")
            old = self._shared_bytes[key]
            self._shared_bytes[key] = new_bytes
        else:
            old = request.demand_bytes
        delta = new_bytes - old
        self.usage_bytes += delta
        if self.usage_bytes < 0:
            raise ResourceError(
                f"{self.kind}: usage went negative ({self.usage_bytes})"
            )
        return delta

    def would_add(self, request: PeriodRequest) -> int:
        """Bytes that *would* be charged by ``charge`` (0 for a held shared set)."""
        key = request.sharing_key
        if key is not None and self._shared_holders.get(key, 0) > 0:
            return 0
        return request.demand_bytes


class ResourceMonitor:
    """Table of :class:`ResourceState`, one entry per managed resource."""

    def __init__(self) -> None:
        self._table: Dict[ResourceKind, ResourceState] = {}
        #: observers notified of every charge/release via
        #: ``on_charge(request, bytes_added)`` / ``on_release(request,
        #: bytes_removed)`` and of resizes — the sanitizer's ledger hooks here
        self.observers: list = []

    def register(self, kind: ResourceKind, capacity_bytes: int) -> ResourceState:
        """Allocate the table entry for a resource."""
        if capacity_bytes <= 0:
            raise ResourceError(f"{kind}: capacity must be positive")
        if kind in self._table:
            raise ResourceError(f"{kind}: already registered")
        state = ResourceState(kind=kind, capacity_bytes=capacity_bytes)
        self._table[kind] = state
        return state

    def state(self, kind: ResourceKind) -> ResourceState:
        try:
            return self._table[kind]
        except KeyError:
            raise ResourceError(f"resource {kind} not registered") from None

    def known(self, kind: ResourceKind) -> bool:
        return kind in self._table

    def increment_load(self, request: PeriodRequest) -> int:
        """``increment_load`` of Algorithm 1."""
        added = self.state(request.resource).charge(request)
        for observer in self.observers:
            observer.on_charge(request, added)
        return added

    def release_load(self, request: PeriodRequest) -> int:
        """Inverse of :meth:`increment_load`, applied at period completion."""
        removed = self.state(request.resource).release(request)
        for observer in self.observers:
            observer.on_release(request, removed)
        return removed

    def resize_load(self, request: PeriodRequest, new_bytes: int) -> int:
        """Re-size a charged request.  Observers with ``on_resize(request,
        new_bytes, delta)`` hear of it as such (the caller then rewrites the
        period's request); the rest see the delta as a partial charge
        (growth) or release (shrink), so byte ledgers stay balanced."""
        delta = self.state(request.resource).resize(request, new_bytes)
        for observer in self.observers:
            on_resize = getattr(observer, "on_resize", None)
            if on_resize is not None:
                on_resize(request, new_bytes, delta)
            elif delta > 0:
                observer.on_charge(request, delta)
            elif delta < 0:
                observer.on_release(request, -delta)
        return delta

    def snapshot(self) -> Dict[ResourceKind, tuple[int, int]]:
        """Mapping of resource → (usage, capacity), for reports and tests."""
        return {
            k: (s.usage_bytes, s.capacity_bytes) for k, s in self._table.items()
        }
