"""Core execution model: from phase parameters and LLC contention to rates.

This is where the analytical memory model turns into time.  For a thread in
a compute phase with hot fraction ``h`` (from
:class:`repro.mem.contention.SharedLlcModel`):

* LLC references per instruction  ``l = mem_refs_per_instr · llc_refs_per_memref``
* DRAM accesses per instruction   ``d = l · (1 − reuse · h)``
* stall seconds per instruction   ``(d · t_dram + (l − d) · t_llc) · (1 − overlap)``
* seconds per instruction         ``cycle / base_ipc + stall``

The model also prices the two scheduler-induced costs the paper's evaluation
hinges on:

* **cold-cache reload** after a context switch (figure 1): the incoming
  thread refetches ``min(wss, share)`` bytes at DRAM bandwidth, and
* **progress-tracking overhead** (figure 11): each begin/end pair costs a
  kernel round-trip, bounded per sub-period by a saturation fraction —
  back-to-back notifications coalesce, so tracking can slow a phase by at
  most ``pp_overhead_cap`` no matter how fine the granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import MachineConfig
from ..mem.contention import ContentionPoint
from ..workloads.base import Phase

__all__ = ["ExecRate", "ReloadCost", "ExecutionModel", "PP_OVERHEAD_CAP"]

#: Saturation bound on progress-tracking slowdown (see module docstring).
PP_OVERHEAD_CAP = 0.59


@dataclass(frozen=True)
class ExecRate:
    """Per-instruction execution rates of one thread in its current phase."""

    seconds_per_instr: float
    dram_per_instr: float
    llc_refs_per_instr: float
    hot_fraction: float

    @property
    def ipc(self) -> float:
        return 0.0 if self.seconds_per_instr == 0 else 1.0 / self.seconds_per_instr


@dataclass(frozen=True)
class ReloadCost:
    """Cost of re-warming a thread's working set after a context switch."""

    seconds: float
    dram_accesses: float


class ExecutionModel:
    """Derives execution rates from machine config + contention points."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self._base_spi = config.cpu.cycle_s / config.cpu.base_ipc
        self._stall_scale = 1.0 - config.cpu.memory_overlap

    # ------------------------------------------------------------------
    def rate(
        self,
        phase: Phase,
        point: ContentionPoint,
        tracking_overhead: float = 0.0,
        freq_scale: float = 1.0,
    ) -> ExecRate:
        """Execution rate of a phase at a given contention point.

        Args:
            tracking_overhead: fractional slowdown from progress-period
                tracking (0 when untracked; see :meth:`pp_overhead_fraction`).
            freq_scale: DVFS frequency scale in (0, 1]; slows the pipeline
                term but not memory latency, so scaling down costs
                compute-bound code more than memory-bound code.
        """
        cfg = self.config
        llc_pi = phase.mem_refs_per_instr * phase.llc_refs_per_memref
        p_hit = phase.reuse * point.hot_fraction
        dram_pi = llc_pi * (1.0 - p_hit)
        llc_hit_pi = llc_pi - dram_pi
        stall_scale = (
            self._stall_scale
            if phase.memory_overlap is None
            else 1.0 - phase.memory_overlap
        )
        stall = (
            dram_pi * cfg.memory.latency_s + llc_hit_pi * cfg.llc.latency_s
        ) * stall_scale
        spi = (self._base_spi / freq_scale + stall) * (1.0 + tracking_overhead)
        return ExecRate(
            seconds_per_instr=spi,
            dram_per_instr=dram_pi,
            llc_refs_per_instr=llc_pi,
            hot_fraction=point.hot_fraction,
        )

    def solo_rate(self, phase: Phase) -> ExecRate:
        """Rate with the LLC all to itself (for calibration and tests)."""
        from ..mem.contention import LlcDemand, SharedLlcModel

        model = SharedLlcModel(self.config.llc_capacity)
        point = model.resolve([LlcDemand(phase.wss_bytes, phase.reuse)])[0]
        return self.rate(phase, point)

    # ------------------------------------------------------------------
    def reload_cost(self, phase: Phase, point: ContentionPoint) -> ReloadCost:
        """Cold-cache reload after the phase's owner is switched onto a core.

        The thread can at best re-warm its LLC *share*; data beyond the
        share would be evicted again, and its cost is already captured by
        the steady-state miss rate.  Only the *reusable* fraction of the
        working set is worth re-warming — a streaming phase loses nothing
        by being switched out, so its reload is proportionally cheap.
        """
        bytes_to_load = min(phase.wss_bytes, point.share_bytes) * phase.reuse
        seconds = bytes_to_load / self.config.memory.bandwidth_bytes_per_s
        accesses = bytes_to_load / self.config.llc.line_bytes
        return ReloadCost(seconds=seconds, dram_accesses=accesses)

    # ------------------------------------------------------------------
    def apply_bandwidth_cap(self, rates: list[ExecRate]) -> list[ExecRate]:
        """Throttle co-running threads so aggregate DRAM traffic fits the bus.

        The latency model alone lets N streaming threads demand N times the
        memory bandwidth.  When the aggregate demand ``Σ dram_i / spi_i ·
        line`` exceeds the sustained bandwidth, every DRAM access queues for
        an extra delay ``x``; we solve for the unique ``x ≥ 0`` at which the
        achieved traffic equals the bus limit (the classic M/D/1-style
        saturation closure, monotone in ``x`` so bisection converges fast).

        This is what makes figure 13's largest input flat from 6 to 12
        instances: "at 6 processes, the performance becomes memory bound".
        """
        line = self.config.llc.line_bytes
        bw = self.config.memory.bandwidth_bytes_per_s
        max_accesses_per_s = bw / line
        # (dram, spi) of the threads that touch DRAM, read once: the
        # bisection below evaluates achieved() some 40 times
        traffic = [
            (r.dram_per_instr, r.seconds_per_instr)
            for r in rates
            if r.dram_per_instr > 0.0
        ]

        def achieved(extra_delay: float) -> float:
            return sum([d / (spi + d * extra_delay) for d, spi in traffic])

        if achieved(0.0) <= max_accesses_per_s:
            return rates
        lo, hi = 0.0, self.config.memory.latency_s
        while achieved(hi) > max_accesses_per_s:
            hi *= 2.0
            if hi > 1.0:  # pragma: no cover - unphysical
                break
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if achieved(mid) > max_accesses_per_s:
                lo = mid
            else:
                hi = mid
        x = hi
        return [
            ExecRate(
                seconds_per_instr=r.seconds_per_instr + r.dram_per_instr * x,
                dram_per_instr=r.dram_per_instr,
                llc_refs_per_instr=r.llc_refs_per_instr,
                hot_fraction=r.hot_fraction,
            )
            for r in rates
        ]

    def pp_overhead_fraction(self, phase: Phase, warm_spi: float) -> float:
        """Fractional slowdown from tracking the phase's progress periods.

        A phase broken into ``N`` sub-periods (figure 11) crosses ``N``
        begin/end pairs.  Each pair costs two kernel calls, but never more
        than ``PP_OVERHEAD_CAP`` of the sub-period's own work — when calls
        arrive faster than the kernel consumes notifications they coalesce,
        bounding the slowdown.
        """
        if phase.pp is None:
            return 0.0
        n = phase.pp.subperiods
        work_s = phase.instructions * warm_spi
        if work_s <= 0.0:
            return 0.0
        pair_cost = 2.0 * self.config.scheduler.pp_call_overhead_s
        per_sub_cap = PP_OVERHEAD_CAP * work_s / n
        return n * min(pair_cost, per_sub_cap) / work_s
