"""Trace-driven set-associative cache simulator.

Used to validate the analytical contention model of
:mod:`repro.mem.contention` and to drive the profiler experiments on
synthetic address traces.  Single-level; :mod:`repro.mem.hierarchy` stacks
several instances into an L1/L2/LLC hierarchy.

The state is plain Python: one list of tags per set, so one access costs
a few list operations, no numpy call and, on a hit, no policy call.  Under
LRU a set's list is kept least recent first and that order is the whole
replacement state: a hit moves its tag to the end, and a fill into a full
set drops the first tag.  Under FIFO and random each tag stays in its way,
and the policy (:mod:`repro.mem.replacement`) is asked only for the way a
fill into a full set replaces.  A numpy trace is turned into Python ints
once per :meth:`Cache.access_trace`, not once per address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from ..config import CacheConfig
from .replacement import make_replacement

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
        # _sets[s] holds the tags of set s's valid lines, and no marker value
        # can alias a real tag.  A fill into a set that is not full appends,
        # and only invalidate_all() empties a set.  Under LRU the list is in
        # recency order, least recent first; under FIFO and random tag k
        # sits in way k, and a full set's fill overwrites the victim's way.
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        repl = make_replacement(replacement, self.n_sets, self.n_ways, seed=seed)
        #: the policy's victim choice; None under LRU, which keeps its order
        #: in the lists
        self._victim: Optional[Callable[[int], int]] = (
            None if repl is None else repl.victim
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
            if self._victim is None:  # LRU: the tag becomes the most recent
                ways.remove(tag)
                ways.append(tag)
            stats.hits += 1
            return True
        stats.misses += 1
        if len(ways) < self.n_ways:
            ways.append(tag)
            return False
        stats.evictions += 1
        victim = self._victim
        if victim is None:  # LRU: the least recent tag is the first
            del ways[0]
            ways.append(tag)
        else:
            ways[victim(set_idx)] = tag
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
