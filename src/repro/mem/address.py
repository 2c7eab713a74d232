"""Virtual address-space layout helpers for synthetic trace generation.

Trace generators lay out the arrays of a modelled application as
:class:`Region` objects inside an :class:`AddressSpace`, then emit accesses
as region-relative offsets.  Keeping the layout explicit makes generated
traces realistic (distinct arrays never alias) and lets tests assert
footprint arithmetic exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..errors import ProfilerError

__all__ = ["Region", "AddressSpace"]

#: regions are aligned to 2 MiB boundaries (huge-page style)
_ALIGN = 2 * 1024 * 1024


@dataclass(frozen=True)
class Region:
    """A contiguous array in the simulated virtual address space."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def addr(self, offset):
        """Absolute address(es) for byte offset(s) into the region.

        Accepts scalars or numpy arrays; offsets wrap modulo the region so
        generators can index freely with logical element numbers.  The
        modulo runs only when some offset lies outside ``[0, size)``: an
        in-region offset is its own remainder.
        """
        off = np.asarray(offset, dtype=np.int64)
        if off.size and 0 <= off.min() and off.max() < self.size:
            return self.base + off
        return self.base + off % self.size

    def element_addr(self, index, element_bytes: int):
        """Address(es) of fixed-size element(s), wrapping modulo the region."""
        return self.addr(np.asarray(index, dtype=np.int64) * element_bytes)


class AddressSpace:
    """Allocator handing out non-overlapping, aligned regions."""

    def __init__(self, base: int = 0x10_0000_0000) -> None:
        self._next = base
        self._regions: Dict[str, Region] = {}

    def alloc(self, name: str, size: int) -> Region:
        if size <= 0:
            raise ProfilerError(f"region {name!r}: size must be positive")
        if name in self._regions:
            raise ProfilerError(f"region {name!r} already allocated")
        base = self._next
        region = Region(name=name, base=base, size=int(size))
        self._next = base + ((size + _ALIGN - 1) // _ALIGN) * _ALIGN
        self._regions[name] = region
        return region

    def __getitem__(self, name: str) -> Region:
        try:
            return self._regions[name]
        except KeyError:
            raise ProfilerError(f"unknown region {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    def regions(self) -> list[Region]:
        return list(self._regions.values())
