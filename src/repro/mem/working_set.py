"""Footprint, working-set-size and reuse-ratio computation over windows.

Implements the per-window statistics of the paper's preliminary profiler
(section 2.4): within one fixed-size sampling window of instructions, an
array keeps the number of times each unique address is accessed; at the end
of the window

* the **memory footprint** is the number of unique addresses touched,
* the **working-set size** is the number of entries accessed at least a
  pre-configured number of times, and
* the **reuse ratio** is the average access count per entry.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..core.progress_period import ReuseLevel
from ..errors import ProfilerError

__all__ = ["WindowStats", "window_stats", "reuse_level_of_ratio"]


@dataclass(frozen=True)
class WindowStats:
    """Statistics of one sampling window of memory accesses."""

    n_accesses: int
    footprint_bytes: int
    wss_bytes: int
    reuse_ratio: float

    def similar_to(self, other: "WindowStats", tolerance: float = 0.25) -> bool:
        """Relative similarity used by the period-detection algorithm.

        Two windows are "sufficiently similar" (paper's wording) when both
        working-set size and reuse ratio agree within ``tolerance`` relative
        difference.
        """

        def close(a: float, b: float) -> bool:
            scale = max(abs(a), abs(b), 1.0)
            return abs(a - b) / scale <= tolerance

        return close(self.wss_bytes, other.wss_bytes) and close(
            self.reuse_ratio, other.reuse_ratio
        )


#: a window whose line span (max - min) is at most this many times its
#: access count is counted in an array indexed by line; a sparser one is
#: sorted instead, so the array holds at most 4n + 1 int64 counts for n
#: accesses (about 32 bytes per access)
DENSE_SPAN_PER_ACCESS = 4


def _positive_int(value: object, name: str) -> int:
    """``value`` as a Python int >= 1; :class:`ProfilerError` otherwise."""
    # bool is an int subclass, but True is no byte count or threshold
    if isinstance(value, bool):
        raise ProfilerError(f"{name} must be an integer, got {value!r}")
    try:
        number = operator.index(value)
    except TypeError:
        raise ProfilerError(f"{name} must be an integer, got {value!r}") from None
    if number < 1:
        raise ProfilerError(f"{name} must be >= 1, got {number}")
    return number


def check_window_options(granularity_bytes: int, min_accesses: int) -> Tuple[int, int]:
    """Both window options as Python ints.

    Raises :class:`ProfilerError` unless each is an integer (anything
    ``operator.index`` takes, ``bool`` excepted) of at least 1.
    """
    return (
        _positive_int(granularity_bytes, "granularity_bytes"),
        _positive_int(min_accesses, "min_accesses"),
    )


def window_stats(
    addresses: Sequence[int],
    granularity_bytes: int = 64,
    min_accesses: int = 2,
) -> WindowStats:
    """Compute footprint / WSS / reuse ratio of one window of addresses.

    As the paper's profiler does, a window is counted in an array: one
    slot per line between the window's lowest and highest line, holding
    that line's access count.  The footprint is the number of nonzero
    slots, the working set the number of slots at ``min_accesses`` or
    more, and the reuse ratio the accesses over the footprint: the mean
    of the nonzero counts, whose float64 sum is exact.  When the span
    exceeds :data:`DENSE_SPAN_PER_ACCESS` slots per access (a window that
    straddles distant regions), the lines are sorted and each run of
    equal lines is counted instead.  Either way the counts are the ones
    ``np.unique(lines, return_counts=True)`` gives, so both paths return
    identical statistics.

    Args:
        addresses: virtual byte addresses of the load/store instructions
            retired in this window.
        granularity_bytes: tracking granularity (cache-line by default, as a
            PIN tool would coalesce accesses to the same line).
        min_accesses: an address counts toward the working set when touched
            at least this many times (the paper's "pre-configured number").

    Raises:
        ProfilerError: ``granularity_bytes`` or ``min_accesses`` is not an
            integer, or is below 1.
    """
    granularity_bytes, min_accesses = check_window_options(
        granularity_bytes, min_accesses
    )
    arr = np.asarray(addresses, dtype=np.int64)
    n = int(arr.size)
    if n == 0:
        return WindowStats(0, 0, 0, 0.0)
    # a fresh array either way: safe to shift or sort.  For a power-of-two
    # granularity the arithmetic shift is the floor division, negatives too
    if (granularity_bytes & (granularity_bytes - 1)) == 0:
        lines = arr >> (granularity_bytes.bit_length() - 1)
    else:
        lines = arr // granularity_bytes
    low = int(lines.min())
    # a Python int: the span of an int64 window can exceed int64
    if int(lines.max()) - low <= DENSE_SPAN_PER_ACCESS * n:
        lines -= low
        counts = np.bincount(lines)
        footprint = int(np.count_nonzero(counts))
    else:
        lines.sort()
        # each run of equal sorted lines is one unique line; its length is
        # that line's access count
        starts = np.flatnonzero(np.concatenate(([True], lines[1:] != lines[:-1])))
        counts = np.diff(starts, append=n)
        footprint = int(counts.size)
    wss = int(np.count_nonzero(counts >= min_accesses))
    return WindowStats(
        n_accesses=n,
        footprint_bytes=footprint * granularity_bytes,
        wss_bytes=wss * granularity_bytes,
        # the mean count: n is the counts' sum, and n / footprint rounds
        # the exact quotient once, as counts.mean() does
        reuse_ratio=n / footprint,
    )


def reuse_level_of_ratio(reuse_ratio: float) -> ReuseLevel:
    """Categorize a raw reuse ratio into the paper's low/med/high levels.

    The thresholds mirror the workload taxonomy of Table 2: BLAS-1 streams
    (each line touched about once per sweep) are *low*; BLAS-2 re-touches
    vectors but streams the matrix — *medium*; blocked BLAS-3 re-touches
    blocks many times — *high*.
    """
    if reuse_ratio < 2.0:
        return ReuseLevel.LOW
    if reuse_ratio < 8.0:
        return ReuseLevel.MEDIUM
    return ReuseLevel.HIGH
