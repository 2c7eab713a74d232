"""The bandwidth cap's solve is the plain 40-step bisection, bit for bit.

``ExecutionModel.apply_bandwidth_cap`` replays the bisection's doubling loop
and its 40 halvings but evaluates the achieved traffic only where no earlier
evaluation decides the comparison past a rounding margin, and memoises the
delay per exact traffic vector.  ``plain_delay`` below is the bisection it
replaces; every delay and every capped rate must compare ``==`` with it.

The kernel side: each thread's ``rate_key`` follows its phase, and the
memo of cold-reload costs returns what ``ExecutionModel.reload_cost`` does.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.cpu as cpu
from repro.config import (
    CacheConfig,
    CpuConfig,
    MachineConfig,
    MemoryConfig,
    SchedulerConfig,
)
from repro.sim.cpu import ExecRate, ExecutionModel
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.units import kib, us
from repro.workloads.base import Phase, ProcessSpec, Workload, barrier_phase


# ----------------------------------------------------------------------
# the specification: the plain bisection
# ----------------------------------------------------------------------
def plain_delay(model: ExecutionModel, rates: list[ExecRate]):
    """The delay of the plain bisection, or None when the bus is not full."""
    limit = model.config.memory.bandwidth_bytes_per_s / model.config.llc.line_bytes
    traffic = [
        (r.dram_per_instr, r.seconds_per_instr)
        for r in rates
        if r.dram_per_instr > 0.0
    ]

    def achieved(extra_delay: float) -> float:
        return sum([d / (spi + d * extra_delay) for d, spi in traffic])

    if achieved(0.0) <= limit:
        return None
    lo, hi = 0.0, model.config.memory.latency_s
    while achieved(hi) > limit:
        hi *= 2.0
        if hi > 1.0:
            break
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if achieved(mid) > limit:
            lo = mid
        else:
            hi = mid
    return hi


def plain_cap(model: ExecutionModel, rates: list[ExecRate]) -> list[ExecRate]:
    x = plain_delay(model, rates)
    if x is None:
        return rates
    return [
        ExecRate(
            seconds_per_instr=r.seconds_per_instr + r.dram_per_instr * x,
            dram_per_instr=r.dram_per_instr,
            llc_refs_per_instr=r.llc_refs_per_instr,
            hot_fraction=r.hot_fraction,
        )
        for r in rates
    ]


def _rates(traffic) -> list[ExecRate]:
    return [
        ExecRate(
            seconds_per_instr=spi,
            dram_per_instr=d,
            llc_refs_per_instr=1.0,
            hot_fraction=0.5,
        )
        for d, spi in traffic
    ]


def _assert_solve_is_bisection(model: ExecutionModel, traffic) -> bool:
    """Compare with the plain bisection; True when the cap bound."""
    rates = _rates(traffic)
    expected = plain_delay(model, rates)
    capped = model.apply_bandwidth_cap(rates)
    if expected is None:
        assert capped is rates
        return False
    assert model._delays[tuple(traffic)] == expected
    assert capped == plain_cap(model, rates)
    return True


def _model(bandwidth: float = MemoryConfig().bandwidth_bytes_per_s) -> ExecutionModel:
    return ExecutionModel(
        MachineConfig(memory=MemoryConfig(bandwidth_bytes_per_s=bandwidth))
    )


class _CountingLoads:
    """Counts the solve's evaluations of the achieved traffic."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        real = cpu._loads

        def counting(traffic, x):
            self.calls += 1
            return real(traffic, x)

        monkeypatch.setattr(cpu, "_loads", counting)


# ----------------------------------------------------------------------
# the property
# ----------------------------------------------------------------------
_TRAFFIC = st.lists(
    st.tuples(st.floats(1e-6, 1.0), st.floats(1e-10, 1e-8)), min_size=1, max_size=12
)


@settings(max_examples=400, deadline=None)
@given(traffic=_TRAFFIC)
def test_solve_is_the_bisection(traffic):
    _assert_solve_is_bisection(_model(), traffic)


# ----------------------------------------------------------------------
# named cases
# ----------------------------------------------------------------------
class TestNamedVectors:
    def test_all_threads_identical(self, monkeypatch):
        # 1/F is linear in x: Newton lands on the root in one step
        counting = _CountingLoads(monkeypatch)
        for n in (2, 5, 12):
            counting.calls = 0
            assert _assert_solve_is_bisection(_model(), [(0.3, 1e-9)] * n)
            assert counting.calls <= 6, counting.calls

    def test_one_thread(self):
        for d, spi in ((1.0, 1e-10), (0.5, 1e-9), (0.9, 1e-9)):
            assert _assert_solve_is_bisection(_model(), [(d, spi)])

    def test_root_beyond_one_second_hits_the_doubling_break(self):
        # 2 accesses/s of bus for four streams: the root is near 2 s, so
        # the doubling stops past 1 s with achieved(hi) still over the
        # limit, and every midpoint is below the root
        model = _model(bandwidth=128.0)
        traffic = [(0.5, 1e-9)] * 4
        assert _assert_solve_is_bisection(model, traffic)
        latency = model.config.memory.latency_s
        hi = latency
        while hi <= 1.0:
            hi *= 2.0
        assert model._delays[tuple(traffic)] == hi

    def test_root_past_the_latency_doubles_hi(self):
        # a slow bus puts the root at a few microseconds: hi doubles from
        # the 80 ns latency before the halvings start
        model = _model(bandwidth=256e6)
        traffic = [(0.5, 1e-9), (0.2, 3e-9), (0.7, 2e-9)]
        assert _assert_solve_is_bisection(model, traffic)
        assert model._delays[tuple(traffic)] > 2 * model.config.memory.latency_s

    @pytest.mark.parametrize("n", [1, 3, 12])
    @pytest.mark.parametrize("depth", [3, 9, 21, 30, 39])
    @pytest.mark.parametrize("frac", [0.3, 1e-4, 1e-7])
    def test_midpoint_within_ulps_of_the_float_crossing(self, n, depth, frac):
        # n identical threads cross the limit at x = n/limit - spi/d.  Pick
        # spi so that crossing is a midpoint the bisection visits (an odd
        # multiple of latency / 2**depth near frac·n/limit), then nudge spi
        # by a few ulps to move the float crossing across that midpoint.
        # A small frac makes F flat there: x is tiny against spi/d, so the
        # Newton estimate is off by ~u/frac and only evaluations can place
        # the bracket.
        model = _model()
        limit = model.config.memory.bandwidth_bytes_per_s / model.config.llc.line_bytes
        latency = model.config.memory.latency_s
        d = 0.25
        target = frac * n / limit
        depth = max(depth, math.ceil(math.log2(latency / target)))
        step = latency / 2**depth
        mid = (int(target / step) | 1) * step
        spi = d * (n / limit - mid)
        assert spi > 0 and mid < latency and depth <= 40
        achieved = sum([d / (spi + d * mid)] * n)
        assert abs(achieved - limit) <= 8 * math.ulp(limit)
        for nudge in range(-4, 5):
            s = spi
            for _ in range(abs(nudge)):
                s = math.nextafter(s, math.inf if nudge > 0 else 0.0)
            assert _assert_solve_is_bisection(model, [(d, s)] * n)

    def test_uncapped_rates_are_returned_as_is(self):
        model = _model()
        rates = _rates([(1e-3, 1e-9), (0.0, 1e-9)])
        assert model.apply_bandwidth_cap(rates) is rates
        assert model.apply_bandwidth_cap([]) == []
        assert not model._delays


class TestDelayMemo:
    def test_repeated_traffic_evaluates_nothing(self, monkeypatch):
        model = _model()
        traffic = [(0.4, 1e-9), (0.6, 2e-9), (0.5, 1.5e-9)]
        rates = _rates(traffic)
        counting = _CountingLoads(monkeypatch)
        first = model.apply_bandwidth_cap(rates)
        assert counting.calls > 0 and first is not rates
        counting.calls = 0
        # equal values, fresh objects: the memo is keyed by value
        again = model.apply_bandwidth_cap(_rates(traffic))
        assert counting.calls == 0
        assert again == first == plain_cap(model, rates)

    def test_memo_stays_bounded(self):
        model = _model()
        for i in range(cpu._DELAY_MEMO_MAX + 10):
            traffic = [(0.5, 1e-9 + i * 1e-14)] * 3
            model.apply_bandwidth_cap(_rates(traffic))
            assert len(model._delays) <= cpu._DELAY_MEMO_MAX
        # the last vector was solved after the clear and is still served
        assert model._delays[tuple(traffic)] == plain_delay(model, _rates(traffic))


# ----------------------------------------------------------------------
# kernel side
# ----------------------------------------------------------------------
_LLC = kib(1024)


def _phase(name: str, wss_frac: float, reuse: float = 0.95) -> Phase:
    return Phase(
        name=name,
        instructions=2_000_000,
        flops_per_instr=1.0,
        mem_refs_per_instr=0.4,
        llc_refs_per_memref=0.1,
        wss_bytes=int(wss_frac * _LLC),
        reuse=reuse,
    )


def test_rate_key_follows_every_phase_change():
    spec = ProcessSpec(
        name="p",
        program=[_phase("a", 0.2), barrier_phase("b"), _phase("c", 0.5)],
        n_threads=2,
    )
    process = Process(spec)
    for thread in process.threads:
        assert thread.rate_key == (id(thread.phase), process.pid)
        while not thread.done:
            thread.advance_phase()
            assert thread.rate_key == (id(thread.phase), process.pid)
        assert thread.phase is None


class _NoReloadMemo(dict):
    """A reload memo that never hits: every placement asks reload_cost."""

    def get(self, key, default=None):
        return default


def _reload_run(no_memo: bool = False) -> Kernel:
    config = MachineConfig(
        cpu=CpuConfig(n_cores=2),
        llc=CacheConfig("L3-Shared", _LLC, associativity=16, shared=True),
        scheduler=SchedulerConfig(timeslice_s=us(100.0), min_granularity_s=us(100.0)),
    )
    kernel = Kernel(config=config)
    if no_memo:
        kernel._reloads = _NoReloadMemo()
    # three processes on two cores: each phase meets different co-runners,
    # so it is reloaded at more than one LLC share
    workload = Workload(
        name="reloads",
        processes=[
            ProcessSpec(name=f"p{i}", program=[_phase(f"p{i}", f, r)])
            for i, (f, r) in enumerate([(0.7, 0.95), (0.4, 0.9), (0.9, 0.5)])
        ],
    )
    kernel.launch(workload)
    kernel.run()
    return kernel


def test_reload_memo_returns_reload_cost(monkeypatch):
    asked = {}
    real = ExecutionModel.reload_cost

    def spy(self, phase, point):
        cost = real(self, phase, point)
        asked[id(phase), point.share_bytes] = (cost.seconds, cost.dram_accesses)
        return cost

    monkeypatch.setattr(ExecutionModel, "reload_cost", spy)
    kernel = _reload_run()
    # each entry is reload_cost's answer for its phase and share, and a
    # phase met at two shares has two entries
    assert kernel._reloads == asked
    shares = {}
    for phase_id, share in kernel._reloads:
        shares.setdefault(phase_id, set()).add(share)
    assert any(len(s) > 1 for s in shares.values())
    # the run is the one that asks reload_cost at every placement
    plain = _reload_run(no_memo=True)
    assert [t.stats for p in kernel.processes for t in p.threads] == [
        t.stats for p in plain.processes for t in p.threads
    ]
    counters = kernel.machine.counters.snapshot().values
    assert counters == plain.machine.counters.snapshot().values
    assert kernel.engine.events_processed == plain.engine.events_processed
