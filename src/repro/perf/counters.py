"""Hardware-counter emulation.

A :class:`CounterSet` is the machine-wide bank of counters the execution
model increments; experiment code snapshots it before and after a region of
interest, like programming PMU events around a workload.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from ..errors import SimulationError

__all__ = ["HwCounter", "CounterSet"]


class HwCounter(enum.Enum):
    """Counter identifiers, named after their perf event analogues."""

    __hash__ = object.__hash__  # members are singletons: hash by identity

    INSTRUCTIONS = "instructions"
    CYCLES = "cycles"
    FP_OPS = "fp_arith_inst_retired"  # FLOPs retired
    LLC_REFERENCES = "LLC-loads"  # accesses reaching the shared LLC
    LLC_MISSES = "LLC-load-misses"  # accesses serviced by DRAM
    CONTEXT_SWITCHES = "context-switches"
    MIGRATIONS = "cpu-migrations"
    PP_BEGIN_CALLS = "pp:begin"  # software events of the RDA extension
    PP_END_CALLS = "pp:end"
    PP_DENIALS = "pp:denied"


@dataclass
class CounterSnapshot:
    """Immutable copy of all counters at one instant."""

    values: Dict[HwCounter, float]

    def __getitem__(self, counter: HwCounter) -> float:
        return self.values.get(counter, 0.0)

    def __sub__(self, earlier: "CounterSnapshot") -> "CounterSnapshot":
        return CounterSnapshot(
            {c: self[c] - earlier[c] for c in HwCounter}
        )


class CounterSet:
    """Monotonic machine-wide counters."""

    def __init__(self) -> None:
        self._values: Dict[HwCounter, float] = {c: 0.0 for c in HwCounter}

    def add(self, counter: HwCounter, amount: float) -> None:
        if amount < 0:
            raise SimulationError(f"counter {counter} decremented by {amount}")
        self._values[counter] += amount

    def read(self, counter: HwCounter) -> float:
        return self._values[counter]

    def snapshot(self) -> CounterSnapshot:
        return CounterSnapshot(dict(self._values))
