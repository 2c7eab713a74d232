"""Derived comparisons between scheduling policies, and shared statistics.

The paper reports each RDA configuration *relative to the Linux default*:
speedup (GFLOPS ratio), system-energy decrease, DRAM-energy decrease and
energy-efficiency (GFLOPS/W) increase.  :func:`compare` computes those from
two :class:`~repro.perf.stat.PerfReport` objects.

The percentile helpers re-exported here live in :mod:`repro.latency`, a
pure-Python module the load generator and the chaos driver import without
this package (and numpy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from ..latency import LatencySummary, percentile, summarize_samples
from ..perf.stat import PerfReport

__all__ = [
    "PolicyComparison",
    "compare",
    "compare_all",
    "percentile",
    "LatencySummary",
    "summarize_samples",
]


@dataclass(frozen=True)
class PolicyComparison:
    """One RDA configuration measured against the default baseline."""

    workload: str
    policy: str
    speedup: float  # GFLOPS ratio (also makespan ratio for fixed work)
    system_energy_ratio: float  # policy / default (0.52 = 48 % decrease)
    dram_energy_ratio: float
    efficiency_gain: float  # GFLOPS/W ratio

    @property
    def system_energy_decrease(self) -> float:
        """Fractional decrease in system energy (positive = saved energy)."""
        return 1.0 - self.system_energy_ratio

    @property
    def dram_energy_decrease(self) -> float:
        return 1.0 - self.dram_energy_ratio

    def describe(self) -> str:
        return (
            f"{self.workload:<10} {self.policy:<16} "
            f"speedup={self.speedup:5.2f}x  "
            f"energy={self.system_energy_decrease:+6.1%}  "
            f"dram={self.dram_energy_decrease:+6.1%}  "
            f"gflops/W={self.efficiency_gain:5.2f}x"
        )


def compare(
    workload: str, policy: str, baseline: PerfReport, candidate: PerfReport
) -> PolicyComparison:
    """Compare one policy's report against the default baseline."""
    return PolicyComparison(
        workload=workload,
        policy=policy,
        speedup=_ratio(candidate.gflops, baseline.gflops, candidate, baseline),
        system_energy_ratio=candidate.system_j / baseline.system_j,
        dram_energy_ratio=candidate.dram_j / baseline.dram_j,
        efficiency_gain=candidate.gflops_per_watt / baseline.gflops_per_watt
        if baseline.gflops_per_watt > 0
        else float("nan"),
    )


def _ratio(
    c_gflops: float, b_gflops: float, candidate: PerfReport, baseline: PerfReport
) -> float:
    """GFLOPS ratio; falls back to inverse-runtime for FLOP-free workloads."""
    if b_gflops > 0 and c_gflops > 0:
        return c_gflops / b_gflops
    return baseline.wall_s / candidate.wall_s


def compare_all(
    workload: str, reports: Mapping[str, PerfReport], baseline_name: str = "Linux Default"
) -> Dict[str, PolicyComparison]:
    """Compare every non-baseline policy in ``reports`` to the baseline."""
    baseline = reports[baseline_name]
    return {
        name: compare(workload, name, baseline, report)
        for name, report in reports.items()
        if name != baseline_name
    }
