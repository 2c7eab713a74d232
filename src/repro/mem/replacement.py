"""Replacement policies for the set-associative cache simulator.

Policies operate per cache set.  A policy tracks access order metadata and
answers "which way should be evicted".  The metadata lives in plain Python
lists, indexed by set, so the cache's per-access path makes no numpy call:
``on_access`` is one list store (LRU) or nothing (FIFO, random), and
``victim`` scans one set's row (LRU), bumps one pointer (FIFO) or pops a
pre-drawn way (random).  The choices are those of the numpy arrays these
lists replaced, bit for bit (DESIGN.md §3, "Trace-driven path").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

__all__ = ["ReplacementState", "LruState", "FifoState", "RandomState", "make_replacement"]


class ReplacementState(ABC):
    """Per-set replacement metadata for all sets of one cache."""

    def __init__(self, n_sets: int, n_ways: int) -> None:
        self.n_sets = n_sets
        self.n_ways = n_ways

    @abstractmethod
    def on_access(self, set_idx: int, way: int) -> None:
        """Record a hit (or fill) of ``way`` in ``set_idx``."""

    @abstractmethod
    def victim(self, set_idx: int) -> int:
        """Return the way to evict from ``set_idx``."""


class LruState(ReplacementState):
    """True LRU via a per-set monotonically increasing timestamp row."""

    def __init__(self, n_sets: int, n_ways: int) -> None:
        super().__init__(n_sets, n_ways)
        self._stamp = [[0] * n_ways for _ in range(n_sets)]
        self._clock = 0

    def on_access(self, set_idx: int, way: int) -> None:
        self._clock += 1
        self._stamp[set_idx][way] = self._clock

    def victim(self, set_idx: int) -> int:
        # the first way holding the oldest stamp, as np.argmin picks it
        stamps = self._stamp[set_idx]
        return stamps.index(min(stamps))


class FifoState(ReplacementState):
    """First-in first-out: a round-robin fill pointer per set."""

    def __init__(self, n_sets: int, n_ways: int) -> None:
        super().__init__(n_sets, n_ways)
        self._ptr = [0] * n_sets

    def on_access(self, set_idx: int, way: int) -> None:
        # FIFO ignores hits; only fills advance the pointer, handled in victim.
        pass

    def victim(self, set_idx: int) -> int:
        way = self._ptr[set_idx]
        self._ptr[set_idx] = (way + 1) % self.n_ways
        return way


class RandomState(ReplacementState):
    """Random replacement with a seeded generator (reproducible).

    Victims are drawn from the generator in batches.  NumPy yields the same
    stream for ``integers(n, size=k)`` as for ``k`` calls of
    ``integers(n)``, so the victim sequence is that of one draw per
    eviction; ``tests/mem/test_cache_equivalence.py`` checks this across
    batch boundaries.
    """

    #: victims drawn per generator call
    BATCH = 256

    def __init__(self, n_sets: int, n_ways: int, seed: int = 0) -> None:
        super().__init__(n_sets, n_ways)
        self._rng = np.random.default_rng(seed)
        #: drawn victims, next one last
        self._drawn: list[int] = []

    def on_access(self, set_idx: int, way: int) -> None:
        pass

    def victim(self, set_idx: int) -> int:
        if not self._drawn:
            self._drawn = self._rng.integers(self.n_ways, size=self.BATCH).tolist()
            self._drawn.reverse()
        return self._drawn.pop()


def make_replacement(
    name: str, n_sets: int, n_ways: int, seed: Optional[int] = None
) -> ReplacementState:
    """Factory: ``"lru"``, ``"fifo"`` or ``"random"``."""
    lowered = name.lower()
    if lowered == "lru":
        return LruState(n_sets, n_ways)
    if lowered == "fifo":
        return FifoState(n_sets, n_ways)
    if lowered == "random":
        return RandomState(n_sets, n_ways, seed=seed or 0)
    raise ValueError(f"unknown replacement policy {name!r}")
