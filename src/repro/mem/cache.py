"""Trace-driven set-associative cache simulator.

Used to validate the analytical contention model of
:mod:`repro.mem.contention` and to drive the profiler experiments on
synthetic address traces.  Single-level; :mod:`repro.mem.hierarchy` stacks
several instances into an L1/L2/LLC hierarchy.

The state is plain Python: one list of tags per set, plus the replacement
policy's per-set lists (:mod:`repro.mem.replacement`), so one access costs
a few list operations and no numpy call.  A numpy trace is turned into
Python ints once per :meth:`Cache.access_trace`, not once per address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..config import CacheConfig
from .replacement import ReplacementState, make_replacement

__all__ = ["Cache", "CacheStats", "ReplacementPolicy"]

#: accepted replacement policy names
ReplacementPolicy = str


def python_ints(addresses: Iterable[int]) -> Iterable[int]:
    """The addresses as Python ints: one ``tolist()`` for an integer array."""
    if isinstance(addresses, np.ndarray) and addresses.dtype.kind in "iu":
        return addresses.tolist()
    return map(int, addresses)


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = self.hits = self.misses = self.evictions = 0


class Cache:
    """A set-associative cache over 64-bit byte addresses.

    >>> from repro.config import CacheConfig
    >>> c = Cache(CacheConfig("toy", 4096, line_bytes=64, associativity=2))
    >>> c.access(0)      # cold miss
    False
    >>> c.access(0)      # now resident
    True
    """

    def __init__(
        self,
        config: CacheConfig,
        replacement: ReplacementPolicy = "lru",
        seed: Optional[int] = None,
    ) -> None:
        self.config = config
        self.line_bytes = config.line_bytes
        self.n_sets = config.n_sets
        self.n_ways = config.associativity
        self._line_shift = self.line_bytes.bit_length() - 1
        # _sets[s] holds the tags of set s's valid ways, way 0 first.  A fill
        # takes the first empty way and only invalidate_all() empties a way,
        # so the valid ways are always 0..len-1: the first empty way is
        # len(_sets[s]), and no marker value can alias a real tag.
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        self._repl: ReplacementState = make_replacement(
            replacement, self.n_sets, self.n_ways, seed=seed
        )
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def lookup(self, address: int) -> bool:
        """Check residency without updating any state."""
        line = address >> self._line_shift
        return line // self.n_sets in self._sets[line % self.n_sets]

    def access(self, address: int) -> bool:
        """Access one byte address; fill on miss.  Returns hit (True)/miss."""
        line = address >> self._line_shift
        set_idx = line % self.n_sets
        tag = line // self.n_sets
        ways = self._sets[set_idx]
        stats = self.stats
        stats.accesses += 1
        if tag in ways:
            self._repl.on_access(set_idx, ways.index(tag))
            stats.hits += 1
            return True
        stats.misses += 1
        if len(ways) < self.n_ways:
            way = len(ways)
            ways.append(tag)
        else:
            way = self._repl.victim(set_idx)
            stats.evictions += 1
            ways[way] = tag
        self._repl.on_access(set_idx, way)
        return False

    def access_trace(self, addresses: Iterable[int]) -> CacheStats:
        """Run a whole trace; returns the (cumulative) stats object."""
        access = self.access
        for a in python_ints(addresses):
            access(a)
        return self.stats

    # ------------------------------------------------------------------
    def invalidate_all(self) -> None:
        """Flush the cache (keeps statistics)."""
        for ways in self._sets:
            ways.clear()

    def resident_lines(self) -> int:
        """Number of valid lines currently held."""
        return sum(map(len, self._sets))

    def resident_bytes(self) -> int:
        """Bytes of data currently held."""
        return self.resident_lines() * self.line_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Cache {self.config.name} {self.config.capacity_bytes}B "
            f"{self.n_sets}x{self.n_ways} hit_rate={self.stats.hit_rate:.3f}>"
        )
