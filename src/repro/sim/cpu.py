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

import math
from dataclasses import dataclass

from ..config import MachineConfig
from ..mem.contention import ContentionPoint
from ..workloads.base import Phase

__all__ = ["ExecRate", "ReloadCost", "ExecutionModel", "PP_OVERHEAD_CAP"]

#: Saturation bound on progress-tracking slowdown (see module docstring).
PP_OVERHEAD_CAP = 0.59

#: entries of the traffic -> delay memo before it is cleared
_DELAY_MEMO_MAX = 4096


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
        #: bandwidth-capped traffic vector -> extra delay per DRAM access
        self._delays: dict[tuple, float] = {}

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
        The delay is the 40-step bisection's answer, found from a handful
        of evaluations (:func:`_bisection_delay`) and memoised per exact
        traffic vector.

        This is what makes figure 13's largest input flat from 6 to 12
        instances: "at 6 processes, the performance becomes memory bound".
        """
        line = self.config.llc.line_bytes
        bw = self.config.memory.bandwidth_bytes_per_s
        max_accesses_per_s = bw / line
        # (dram, spi) of the threads that touch DRAM: the solve's only input
        # besides the config, so it keys the delay memo
        traffic = tuple([
            (r.dram_per_instr, r.seconds_per_instr)
            for r in rates
            if r.dram_per_instr > 0.0
        ])
        x = self._delays.get(traffic)
        if x is None:
            loads = _loads(traffic, 0.0)
            achieved = sum(loads)
            if achieved <= max_accesses_per_s:
                return rates
            x = _bisection_delay(
                traffic,
                max_accesses_per_s,
                self.config.memory.latency_s,
                loads,
                achieved,
            )
            if len(self._delays) >= _DELAY_MEMO_MAX:
                self._delays.clear()
            self._delays[traffic] = x
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


def _loads(traffic: tuple, x: float) -> list[float]:
    """Each thread's DRAM accesses per second at extra delay ``x``.

    Their ``sum`` is the achieved traffic ``F(x)`` the bisection compares
    with the bus limit; every evaluation goes through this one expression.
    """
    return [d / (spi + d * x) for d, spi in traffic]


def _bisection_delay(
    traffic: tuple, limit: float, hi: float, loads: list[float], f: float
) -> float:
    """The extra delay the plain bisection returns, from few evaluations.

    The plain bisection doubles ``hi`` from the DRAM latency while
    ``F(hi) > limit`` (stopping past 1 s), then halves ``[0, hi]`` 40 times
    on ``F(mid) > limit`` and returns ``hi``.  This replays exactly those
    comparisons, midpoint by midpoint, so it returns the same float; it
    only skips *evaluating* ``F`` where an earlier evaluation already
    decides the comparison.  ``loads`` are ``F(0)``'s terms and ``f`` is
    their sum, which exceeds ``limit``.

    Why a skipped comparison cannot differ.  Let ``F`` be the exact
    function and ``F~`` its float evaluation, ``u = 2**-53``, ``n`` the
    number of terms.  Each term ``d / (spi + d*x)`` has three roundings
    on positive values, and ``sum`` adds positive terms with relative
    error at most ``(n-1)·u`` left to right (Python 3.11) or about ``2u``
    compensated (Neumaier, Python 3.12 on); so ``|F~ - F| ≤ δ·F`` with
    ``δ ≤ (n+3)·u``.  Take ``η = 4(n+3)·u``, so that
    ``(1+η)(1-δ) ≥ 1+δ`` and ``(1-η)(1+δ) ≤ 1-δ`` hold with room for the
    two roundings of ``limit·(1±η)``.  ``F`` is strictly decreasing, since
    every ``d > 0``.  Then:

    * if ``F~(a) > limit·(1+η)`` and ``mid ≤ a``:
      ``F(mid) ≥ F(a) ≥ F~(a)/(1+δ) > limit/(1-δ)``, so
      ``F~(mid) ≥ (1-δ)·F(mid) > limit``: the comparison is True;
    * if ``F~(b) < limit·(1-η)`` and ``mid ≥ b``:
      ``F(mid) ≤ F(b) ≤ F~(b)/(1-δ) < limit/(1+δ)``, so
      ``F~(mid) ≤ (1+δ)·F(mid) < limit``: the comparison is False.

    The argument uses only the exact ``F``'s monotonicity, never the
    float evaluation's, which compensated summation does not guarantee.
    Every other comparison evaluates ``F~`` as the bisection does.

    The bracket comes from a seed.  ``1/F`` is concave and increasing, so
    Newton's method on ``1/F(x) = 1/limit`` from ``x = 0`` climbs to the
    root from below (exactly, in one step, when every thread is alike).
    Probes at ``x·(1 ± k)``, ``k`` from 1e-12 growing 16-fold, then
    evaluate a point on each side past the margin.  A poor seed costs
    evaluations, never a different answer.
    """
    eta = 4.0 * (len(traffic) + 3) * 2.0**-53
    above = limit * (1.0 + eta)
    below = limit * (1.0 - eta)
    over = -math.inf  # an evaluated x with F~(x) > above: F~ > limit up to it
    under = math.inf  # an evaluated x with F~(x) < below: F~ < limit from it

    def evaluate(x: float) -> float:
        nonlocal loads, over, under
        loads = _loads(traffic, x)
        f = sum(loads)
        if f > above:
            over = x
        elif f < below:
            under = x
        return f

    def exceeds(x: float) -> bool:
        """``F~(x) > limit``, evaluated only between the bracket's sides."""
        if x <= over:
            return True
        if x >= under:
            return False
        return evaluate(x) > limit

    if f > above:
        over = 0.0
    x = 0.0
    while True:
        # Newton on 1/F(x) = 1/limit, whose derivative is Σ t² / F²; while
        # F~ > above, the step exceeds η·x (x·Σ t² < F), so x advances
        step = f * (f - limit) / (limit * sum([t * t for t in loads]))
        if not x + step > x:
            break
        x += step
        f = evaluate(x)
        if f <= above:
            break
    k = 1e-12
    while under > x * (1.0 + k):
        evaluate(x * (1.0 + k))
        k *= 16.0
    k = 1e-12
    while k < 1.0 and over < x * (1.0 - k):
        evaluate(x * (1.0 - k))
        k *= 16.0

    lo = 0.0
    while exceeds(hi):
        hi *= 2.0
        if hi > 1.0:  # unphysical
            break
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if exceeds(mid):
            lo = mid
        else:
            hi = mid
    return hi
