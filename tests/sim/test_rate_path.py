"""The kernel's rate path: what a refresh asks the models, and what it sets.

A rate-cache miss asks the contention model and the bandwidth cap once
each; a hit asks neither.  The per-phase memo behind the cache holds each
uncapped rate with its ``(spi, dpi, lpi)`` triple, and the triples reach
the threads only when the cap leaves the rates as they are: a binding cap
sets every thread's rate from its own output.
"""

from __future__ import annotations

from repro.config import CacheConfig, CpuConfig, MachineConfig, SchedulerConfig
from repro.mem.contention import SharedLlcModel
from repro.sim.cpu import ExecRate, ExecutionModel
from repro.sim.kernel import Kernel
from repro.units import kib, us
from repro.workloads.base import Phase, ProcessSpec, Workload

_LLC = kib(1024)


def _phase(
    name: str, wss_frac: float, reuse: float = 0.9, instructions: int = 400_000
) -> Phase:
    return Phase(
        name=name,
        instructions=instructions,
        flops_per_instr=1.0,
        mem_refs_per_instr=0.4,
        llc_refs_per_memref=0.1,
        wss_bytes=int(wss_frac * _LLC),
        reuse=reuse,
    )


def _stream(name: str) -> Phase:
    # DRAM-bound sweep: two of these co-running exceed the bus
    return Phase(
        name=name,
        instructions=400_000,
        flops_per_instr=0.25,
        mem_refs_per_instr=0.5,
        llc_refs_per_memref=1.0,
        wss_bytes=2 * _LLC,
        reuse=0.02,
        memory_overlap=0.95,
    )


def _kernel(n_cores: int) -> Kernel:
    return Kernel(
        config=MachineConfig(
            cpu=CpuConfig(n_cores=n_cores),
            llc=CacheConfig("L3-Shared", _LLC, associativity=16, shared=True),
            scheduler=SchedulerConfig(
                timeslice_s=us(100.0), min_granularity_s=us(100.0)
            ),
        )
    )


def _workload(programs) -> Workload:
    return Workload(
        name="rates",
        processes=[
            ProcessSpec(name=f"p{i}", program=program)
            for i, program in enumerate(programs)
        ],
    )


def _co_running_key(kernel: Kernel) -> tuple:
    running = [c.thread for c in kernel.cores if c.thread is not None]
    return (kernel.freq_scale, tuple(t.rate_key for t in running))


def test_each_miss_asks_the_models_once_and_a_hit_not_at_all(monkeypatch):
    calls = {"resolve": 0, "cap": 0}
    real_resolve = SharedLlcModel.resolve
    real_cap = ExecutionModel.apply_bandwidth_cap

    def resolve(self, demands):
        calls["resolve"] += 1
        return real_resolve(self, demands)

    def cap(self, rates):
        calls["cap"] += 1
        return real_cap(self, rates)

    monkeypatch.setattr(SharedLlcModel, "resolve", resolve)
    monkeypatch.setattr(ExecutionModel, "apply_bandwidth_cap", cap)
    seen = {"hit": 0, "miss": 0}
    real_recompute = Kernel._recompute_rates

    def recompute(self, placed=()):
        key = _co_running_key(self)
        busy = bool(key[1])
        hit = key in self._rate_cache
        before = dict(calls)
        real_recompute(self, placed)
        asked = {name: calls[name] - before[name] for name in calls}
        if busy and not hit:
            seen["miss"] += 1
            assert asked == {"resolve": 1, "cap": 1}
            assert key in self._rate_cache
        else:
            seen["hit"] += busy
            assert asked == {"resolve": 0, "cap": 0}

    monkeypatch.setattr(Kernel, "_recompute_rates", recompute)
    # three processes on two cores: quanta rotate through recurring pairs
    kernel = _kernel(2)
    kernel.launch(_workload(
        [[_phase(f"a{i}", 0.2 + 0.1 * i, instructions=3_000_000)] for i in range(3)]
    ))
    kernel.run()
    assert kernel.all_exited
    assert seen["miss"] > 0 and seen["hit"] > seen["miss"]
    assert calls["resolve"] == calls["cap"] == seen["miss"]


def test_a_binding_cap_sets_the_capped_rates(monkeypatch):
    # four streams on four cores oversubscribe the bus
    bound = {}  # co-running key -> (uncapped spis, capped spis)
    real_rates_for = Kernel._rates_for
    real_cap = ExecutionModel.apply_bandwidth_cap
    last = {}

    def cap(self, rates):
        capped = real_cap(self, rates)
        last["io"] = (rates, capped)
        return capped

    def rates_for(self, running, keys):
        result = real_rates_for(self, running, keys)
        rates, capped = last.pop("io")
        if capped is not rates:
            bound[(self.freq_scale, keys)] = (
                [r.seconds_per_instr for r in rates],
                [r.seconds_per_instr for r in capped],
            )
        return result

    monkeypatch.setattr(ExecutionModel, "apply_bandwidth_cap", cap)
    monkeypatch.setattr(Kernel, "_rates_for", rates_for)
    checked = []
    real_recompute = Kernel._recompute_rates

    def recompute(self, placed=()):
        real_recompute(self, placed)
        key = _co_running_key(self)
        if key in bound:
            uncapped, capped = bound[key]
            running = [c.thread for c in self.cores if c.thread is not None]
            spis = [t.seconds_per_instr for t in running]
            assert spis == capped
            assert all(s >= u for s, u in zip(spis, uncapped))
            assert spis != uncapped
            checked.append(key)

    monkeypatch.setattr(Kernel, "_recompute_rates", recompute)
    kernel = _kernel(4)
    kernel.launch(_workload(
        [[_stream(f"s{i}"), _phase(f"c{i}", 0.2)] for i in range(4)]
    ))
    kernel.run()
    assert kernel.all_exited
    # the binding set is met on a miss and again on hits
    assert len(checked) > len(set(checked)) > 0


def test_phase_rate_memo_stays_bounded_and_holds_each_rates_triple():
    kernel = _kernel(2)
    memo = kernel._phase_rate_cache
    # a full memo: the run's first new entry clears it
    for i in range(kernel._RATE_CACHE_MAX):
        rate = ExecRate(1e-9 + i * 1e-15, 0.01, 0.04, 0.5)
        memo[-1 - i, 0.5, 1.0] = (
            rate,
            (rate.seconds_per_instr, rate.dram_per_instr, rate.llc_refs_per_instr),
        )
    kernel.launch(_workload([[_phase(f"a{i}", 0.3 * (i + 1))] for i in range(4)]))
    kernel.run()
    assert kernel.all_exited
    assert 0 < len(memo) <= kernel._RATE_CACHE_MAX
    assert all(phase_id >= 0 for phase_id, _, _ in memo)
    for rate, triple in memo.values():
        assert triple == (
            rate.seconds_per_instr,
            rate.dram_per_instr,
            rate.llc_refs_per_instr,
        )
