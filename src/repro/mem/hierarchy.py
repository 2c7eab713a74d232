"""Multi-level cache hierarchy (L1D → L2 → shared LLC → DRAM).

Trace-driven counterpart of the analytical model: addresses are pushed
through the levels, and the result records which level serviced the access
and the latency it cost.  Multiple "cores" may front the same shared LLC,
which is how the contention experiments of figure 13 are cross-validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Optional, Sequence

from ..config import MachineConfig, default_machine_config
from .cache import Cache, python_ints

__all__ = ["AccessResult", "CoreCaches", "CacheHierarchy"]


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one memory access through the hierarchy."""

    level: str  # "L1", "L2", "LLC" or "DRAM"
    latency_s: float

    @property
    def dram(self) -> bool:
        return self.level == "DRAM"


@dataclass
class HierarchyStats:
    """Per-level access counts for one core's view of the hierarchy."""

    l1_hits: int = 0
    l2_hits: int = 0
    llc_hits: int = 0
    dram_accesses: int = 0

    @property
    def accesses(self) -> int:
        return self.l1_hits + self.l2_hits + self.llc_hits + self.dram_accesses

    @property
    def llc_miss_ratio(self) -> float:
        """Fraction of LLC lookups that went to DRAM."""
        lookups = self.llc_hits + self.dram_accesses
        return self.dram_accesses / lookups if lookups else 0.0


class CoreCaches:
    """The private L1D and L2 of one core."""

    def __init__(self, config: MachineConfig, seed: Optional[int] = None) -> None:
        self.l1 = Cache(config.l1d, seed=seed)
        self.l2 = Cache(config.l2, seed=seed)


class CacheHierarchy:
    """N private L1/L2 pairs in front of one shared LLC.

    >>> h = CacheHierarchy(n_cores=2)
    >>> h.access(core=0, address=0).level
    'DRAM'
    >>> h.access(core=0, address=0).level
    'L1'
    """

    def __init__(
        self,
        n_cores: int = 1,
        config: Optional[MachineConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.config = config or default_machine_config()
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        self.cores = [CoreCaches(self.config, seed=seed) for _ in range(n_cores)]
        self.llc = Cache(self.config.llc, seed=seed)
        self.stats = [HierarchyStats() for _ in range(n_cores)]
        # Per-level outcomes are fixed by the config, so the frozen results
        # (and their cumulative latencies) are built once and shared across
        # every access() call instead of being recomputed per lookup.
        cfg = self.config
        l2_latency = cfg.l1d.latency_s + cfg.l2.latency_s
        llc_latency = l2_latency + cfg.llc.latency_s
        self._hit_l1 = AccessResult("L1", cfg.l1d.latency_s)
        self._hit_l2 = AccessResult("L2", l2_latency)
        self._hit_llc = AccessResult("LLC", llc_latency)
        self._miss_dram = AccessResult("DRAM", llc_latency + cfg.memory.latency_s)

    # ------------------------------------------------------------------
    def access(self, core: int, address: int) -> AccessResult:
        """Push one byte address through core-private levels into the LLC."""
        if core < 0:
            raise IndexError(f"core index {core} out of range")
        caches = self.cores[core]  # raises IndexError past the last core
        st = self.stats[core]
        if caches.l1.access(address):
            st.l1_hits += 1
            return self._hit_l1
        if caches.l2.access(address):
            st.l2_hits += 1
            return self._hit_l2
        if self.llc.access(address):
            st.llc_hits += 1
            return self._hit_llc
        st.dram_accesses += 1
        return self._miss_dram

    def access_trace(self, core: int, addresses: Iterable[int]) -> HierarchyStats:
        """Run a trace on one core; returns that core's cumulative stats."""
        access = self.access
        for a in python_ints(addresses):
            access(core, a)
        return self.stats[core]

    def interleave(self, traces: Sequence[Sequence[int]]) -> list[HierarchyStats]:
        """Round-robin-interleave one trace per core through the hierarchy.

        Models concurrent execution: core *i* issues ``traces[i][k]`` in
        lockstep rounds, which is how co-running processes pressure the
        shared LLC simultaneously.
        """
        if len(traces) > len(self.cores):
            raise ValueError("more traces than cores")
        access = self.access
        # zip_longest pads a finished trace with None, never an address
        for round_ in zip_longest(*map(python_ints, traces)):
            for core, address in enumerate(round_):
                if address is not None:
                    access(core, address)
        return [self.stats[i] for i in range(len(traces))]

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Invalidate every level (statistics retained)."""
        for c in self.cores:
            c.l1.invalidate_all()
            c.l2.invalidate_all()
        self.llc.invalidate_all()
