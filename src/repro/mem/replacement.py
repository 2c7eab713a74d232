"""Replacement policies for the set-associative cache simulator.

Policies operate per cache set.  Under LRU the cache keeps each set's tag
list in recency order, least recent first, and that order is the whole
replacement state: :func:`make_replacement` returns no state object for
it.  FIFO and random keep each tag in its way and are asked only for a
victim, when a full set takes a fill: FIFO bumps one per-set pointer and
random pops a pre-drawn way.  The state lives in plain Python lists, so
the cache's per-access path makes no numpy call and no policy call on a
hit.  The choices are those of the numpy arrays these lists replaced, bit
for bit (DESIGN.md §3, "Trace-driven path").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

__all__ = ["ReplacementState", "FifoState", "RandomState", "make_replacement"]


class ReplacementState(ABC):
    """Per-set victim choice for all sets of one cache."""

    def __init__(self, n_sets: int, n_ways: int) -> None:
        self.n_sets = n_sets
        self.n_ways = n_ways

    @abstractmethod
    def victim(self, set_idx: int) -> int:
        """Return the way to evict from the full set ``set_idx``."""


class FifoState(ReplacementState):
    """First-in first-out: a round-robin fill pointer per set.

    Hits leave the pointer alone; only evictions advance it.
    """

    def __init__(self, n_sets: int, n_ways: int) -> None:
        super().__init__(n_sets, n_ways)
        self._ptr = [0] * n_sets

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

    def victim(self, set_idx: int) -> int:
        if not self._drawn:
            self._drawn = self._rng.integers(self.n_ways, size=self.BATCH).tolist()
            self._drawn.reverse()
        return self._drawn.pop()


def make_replacement(
    name: str, n_sets: int, n_ways: int, seed: Optional[int] = None
) -> Optional[ReplacementState]:
    """Factory: ``"lru"``, ``"fifo"`` or ``"random"`` (any case).

    ``"lru"`` returns ``None``: the cache keeps each set's recency order in
    the set's own tag list.  An unknown name raises ``ValueError``.
    """
    lowered = name.lower()
    if lowered == "lru":
        return None
    if lowered == "fifo":
        return FifoState(n_sets, n_ways)
    if lowered == "random":
        return RandomState(n_sets, n_ways, seed=seed or 0)
    raise ValueError(f"unknown replacement policy {name!r}")
