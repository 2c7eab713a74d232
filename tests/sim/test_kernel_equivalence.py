"""Property test: the optimized Kernel is bit-identical to a reference.

The production :class:`~repro.sim.kernel.Kernel` earns its per-event speed
from three rewrites of its hot path:

* one pending core event, armed at the earliest busy core's deadline,
  instead of one event per busy core cancelled and re-pushed on every
  refresh;
* counter accrual that reads each machine-wide counter once per event and
  adds every core's amount in core order, instead of one
  ``CounterSet.add`` per core and counter;
* a per-phase memo of uncapped rates behind the co-running-set cache.

None of that may be observable, not even in the last bit of a float.  This
file pits the kernel against ``ReferenceKernel`` — a subclass that keeps
the straightforward per-core code those rewrites replaced — over
Hypothesis-generated small workloads: 1–4 cores, shared phases, barriers,
nice values, Linux Default / RDA:Strict / RDA:Compromise, a partitioned
LLC, an ondemand governor (``freq_scale`` moves mid-run), streaming phases
that make the DRAM bandwidth cap bind, spawn offsets, probe callbacks and
``run(until=)`` segments.  Trace, counters, RAPL energy, every
``ThreadStats`` and ``events_processed`` must compare ``==``.
"""

from __future__ import annotations

from typing import Any, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, CpuConfig, MachineConfig, SchedulerConfig
from repro.core.partitioning import PartitioningRdaScheduler
from repro.core.policy import CompromisePolicy, StrictPolicy
from repro.core.rda import RdaScheduler
from repro.energy.dvfs import OndemandGovernor
from repro.energy.rapl import RaplDomain
from repro.errors import SimulationError
from repro.mem.contention import LlcDemand
from repro.mem.partition import PartitionedLlcModel
from repro.perf.counters import HwCounter
from repro.sim.cpu import ExecRate, ExecutionModel
from repro.sim.kernel import Kernel
from repro.sim.machine import Machine
from repro.sim.process import Thread, ThreadState
from repro.sim.tracing import KernelTracer, TraceKind, serialize_trace
from repro.units import kib, us
from repro.workloads.base import (
    Phase,
    PhaseKind,
    PpSpec,
    ProcessSpec,
    Workload,
    barrier_phase,
)

_EPS_TIME = 1e-12


# ----------------------------------------------------------------------
# the reference: the per-core kernel code, kept as the specification
# ----------------------------------------------------------------------
class ReferenceKernel(Kernel):
    """Per-core events, per-core counter adds, uncached rates."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: one pending event per core, cancelled and re-pushed every refresh
        self._events: list = [None] * len(self.cores)

    def _accrue(self, now: float) -> None:
        dt = now - self._last_accrual
        if dt < -_EPS_TIME:
            raise SimulationError("accrual went backwards in time")
        total_dram = 0.0
        active = 0
        counters = self.machine.counters
        freq = self.config.cpu.frequency_hz
        if dt > 0:
            for core in self.cores:
                thread = core.thread
                if thread is None:
                    continue
                active += 1
                thread.vruntime += dt * (1024.0 / thread.weight)
                remaining = dt
                if thread.stall_remaining_s > 0.0:
                    s = min(remaining, thread.stall_remaining_s)
                    frac = s / thread.stall_remaining_s
                    d = thread.stall_dram_total * frac
                    thread.stall_dram_total -= d
                    thread.stall_remaining_s -= s
                    if thread.stall_remaining_s < _EPS_TIME:
                        thread.stall_remaining_s = 0.0
                        d += thread.stall_dram_total
                        thread.stall_dram_total = 0.0
                    thread.stats.dram_accesses += d
                    thread.stats.reload_time_s += s
                    total_dram += d
                    remaining -= s
                self._busy_core_seconds += dt
                if remaining > 0.0 and thread.seconds_per_instr > 0.0:
                    n = remaining / thread.seconds_per_instr
                    n = min(n, thread.instr_remaining())
                    phase = thread.current_phase
                    assert phase is not None
                    thread.instr_done += n
                    flops = n * phase.flops_per_instr
                    llc = n * thread.llc_refs_per_instr
                    dram = n * thread.dram_per_instr
                    thread.stats.instructions += n
                    thread.stats.flops += flops
                    thread.stats.llc_refs += llc
                    thread.stats.dram_accesses += dram
                    total_dram += dram
                    counters.add(HwCounter.INSTRUCTIONS, n)
                    counters.add(HwCounter.FP_OPS, flops)
                    counters.add(HwCounter.LLC_REFERENCES, llc)
                counters.add(HwCounter.CYCLES, dt * freq * self.freq_scale)
        self.machine.accrue_interval(
            now,
            active,
            total_dram,
            self._pending_switches,
            freq_scale=self.freq_scale,
        )
        self._pending_switches = 0
        self._last_accrual = now

    def _dispatch(self):
        placed = []
        n_runnable = self.cfs.n_queued + sum(
            1 for c in self.cores if c.thread is not None
        )
        for core in self.cores:
            if core.thread is not None:
                continue
            thread = self.cfs.pick_next()
            if thread is None:
                break
            core.thread = thread
            thread.core = core.idx
            thread.set_state(ThreadState.RUNNING, self.engine.now)
            self._emit(TraceKind.DISPATCH, thread)
            switched = core.last_tid != thread.tid
            if switched and core.last_tid is not None:
                self._pending_switches += 1
                thread.stats.context_switches += 1
            if thread.last_core is not None and thread.last_core != core.idx:
                thread.stats.migrations += 1
                self.machine.counters.add(HwCounter.MIGRATIONS, 1)
            thread.last_core = core.idx
            core.last_tid = thread.tid
            core.quantum_end = self.engine.now + self.cfs.timeslice(n_runnable)
            placed.append((core, thread, switched))
        return placed

    def _recompute_rates(self, placed=()) -> None:
        running = [c.thread for c in self.cores if c.thread is not None]
        if not running:
            return
        key = (
            self.freq_scale,
            tuple((id(t.current_phase), t.process.pid) for t in running),
        )
        cached = self._rate_cache.get(key)
        if cached is None:
            cached = self._rates_for(running)
            if len(self._rate_cache) >= self._RATE_CACHE_MAX:
                self._rate_cache.clear()
            self._rate_cache[key] = cached
        rate_triples, points = cached
        for t, (spi, dpi, lpi) in zip(running, rate_triples):
            t.seconds_per_instr = spi
            t.dram_per_instr = dpi
            t.llc_refs_per_instr = lpi
        if not placed:
            return
        exec_model = self.machine.exec_model
        point_of = {t.tid: p for t, p in zip(running, points)}
        for core, thread, switched in placed:
            if not switched:
                continue
            thread.stall_remaining_s += self.config.scheduler.context_switch_s
            if self.config.scheduler.model_cache_reload:
                phase = thread.current_phase
                assert phase is not None
                reload = exec_model.reload_cost(phase, point_of[thread.tid])
                thread.stall_remaining_s += reload.seconds
                thread.stall_dram_total += reload.dram_accesses

    def _rates_for(self, running: Sequence[Thread]) -> tuple:
        demands = []
        phases: list[Phase] = []
        for t in running:
            phase = t.current_phase
            assert phase is not None and phase.kind is PhaseKind.COMPUTE
            phases.append(phase)
            demands.append(
                LlcDemand(
                    wss_bytes=phase.wss_bytes,
                    reuse=phase.reuse,
                    sharing_key=phase.sharing_scope(t.process.pid),
                )
            )
        points = self.machine.llc_model.resolve(demands)
        exec_model = self.machine.exec_model
        rates = []
        for phase, point in zip(phases, points):
            base = exec_model.rate(phase, point, freq_scale=self.freq_scale)
            overhead = 0.0
            if self.extension is not None and phase.pp is not None:
                overhead = exec_model.pp_overhead_fraction(
                    phase, base.seconds_per_instr
                )
            rates.append(
                exec_model.rate(phase, point, overhead, freq_scale=self.freq_scale)
            )
        rates = reference_bandwidth_cap(exec_model, rates)
        return (
            tuple(
                (r.seconds_per_instr, r.dram_per_instr, r.llc_refs_per_instr)
                for r in rates
            ),
            tuple(points),
        )

    def _reschedule_all(self) -> None:
        engine = self.engine
        now = engine.now
        for core in self.cores:
            event = self._events[core.idx]
            if event is not None:
                event.cancel()
                self._events[core.idx] = None
            thread = core.thread
            if thread is None:
                continue
            if thread.seconds_per_instr <= 0.0:
                raise SimulationError(f"thread {thread.tid} has no execution rate")
            t_done = (
                now
                + thread.stall_remaining_s
                + thread.instr_remaining() * thread.seconds_per_instr
            )
            t_event = min(t_done, max(core.quantum_end, now))
            self._events[core.idx] = engine.schedule_at(
                max(t_event, now), self._core_event, core
            )


def reference_bandwidth_cap(
    model: ExecutionModel, rates: list[ExecRate]
) -> list[ExecRate]:
    """``ExecutionModel.apply_bandwidth_cap`` summing a generator per step."""
    line = model.config.llc.line_bytes
    bw = model.config.memory.bandwidth_bytes_per_s
    max_accesses_per_s = bw / line

    def achieved(extra_delay: float) -> float:
        return sum(
            r.dram_per_instr / (r.seconds_per_instr + r.dram_per_instr * extra_delay)
            for r in rates
            if r.dram_per_instr > 0.0
        )

    if achieved(0.0) <= max_accesses_per_s:
        return rates
    lo, hi = 0.0, model.config.memory.latency_s
    while achieved(hi) > max_accesses_per_s:
        hi *= 2.0
        if hi > 1.0:
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


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
_LLC = kib(1024)


def _compute(name: str, p: dict) -> Phase:
    if p["stream"]:
        # DRAM-bound sweep: two of these co-running exceed the bus
        wss = 2 * _LLC
        return Phase(
            name=name,
            instructions=p["instructions"],
            flops_per_instr=0.25,
            mem_refs_per_instr=0.5,
            llc_refs_per_memref=1.0,
            wss_bytes=wss,
            reuse=0.02,
            memory_overlap=0.95,
            pp=PpSpec(demand_bytes=wss) if p["pp"] else None,
            shared=p["shared"],
        )
    wss = int(p["wss_frac"] * _LLC)
    return Phase(
        name=name,
        instructions=p["instructions"],
        flops_per_instr=1.0,
        mem_refs_per_instr=0.4,
        llc_refs_per_memref=0.1,
        wss_bytes=wss,
        reuse=p["reuse"],
        pp=PpSpec(demand_bytes=wss, subperiods=p["subperiods"]) if p["pp"] else None,
        shared=p["shared"],
    )


_PHASE = st.fixed_dictionaries({
    "barrier": st.booleans(),
    "stream": st.booleans(),
    "instructions": st.sampled_from([30_000, 200_000, 800_000]),
    "wss_frac": st.sampled_from([0.1, 0.4, 0.8, 1.5]),
    "reuse": st.sampled_from([0.05, 0.5, 0.95]),
    "shared": st.booleans(),
    "pp": st.booleans(),
    "subperiods": st.sampled_from([1, 4]),
})

_TIMES = st.sampled_from([0.0, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3])

_PROCESS = st.fixed_dictionaries({
    "n_threads": st.integers(1, 3),
    "nice": st.sampled_from([-5, 0, 0, 5]),
    "phases": st.lists(_PHASE, min_size=1, max_size=3),
    "offset": _TIMES,
})

_SCENARIO = st.fixed_dictionaries({
    "n_cores": st.integers(1, 4),
    "partitioned": st.booleans(),
    "policy": st.sampled_from(["default", "strict", "compromise"]),
    "governor": st.booleans(),
    # short quanta make preemptions common on these short runs
    "timeslice_us": st.sampled_from([6000.0, 100.0]),
    "processes": st.lists(_PROCESS, min_size=1, max_size=6),
    # engine callbacks the test schedules itself: each syncs, records, and
    # schedules child probes whole timeslices later, so they can land on the
    # exact instant of a quantum end armed before them
    "probes": st.lists(
        st.tuples(_TIMES, st.lists(st.integers(0, 2), max_size=2)), max_size=3
    ),
    "until": st.one_of(st.none(), _TIMES),
})


def _workload(scenario: dict) -> Workload:
    specs = []
    for i, proc in enumerate(scenario["processes"]):
        program = []
        for j, p in enumerate(proc["phases"]):
            if p["barrier"]:
                program.append(barrier_phase(f"b{j}"))
            else:
                program.append(_compute(f"p{i}.{j}", p))
        if all(ph.kind is PhaseKind.BARRIER for ph in program):
            program.append(_compute(f"p{i}.tail", proc["phases"][0]))
        specs.append(
            ProcessSpec(
                name=f"proc{i}",
                program=program,
                n_threads=proc["n_threads"],
                nice=proc["nice"],
            )
        )
    return Workload(name="equivalence", processes=specs)


def _kernel(cls, scenario: dict) -> Kernel:
    config = MachineConfig(
        cpu=CpuConfig(n_cores=scenario["n_cores"]),
        llc=CacheConfig("L3-Shared", _LLC, associativity=16, shared=True),
        scheduler=SchedulerConfig(
            timeslice_s=us(scenario["timeslice_us"]),
            min_granularity_s=us(min(750.0, scenario["timeslice_us"])),
        ),
    )
    llc_model = PartitionedLlcModel(_LLC) if scenario["partitioned"] else None
    policy = {
        "default": None,
        "strict": StrictPolicy(),
        "compromise": CompromisePolicy(oversubscription=2.0),
    }[scenario["policy"]]
    extension = None
    if policy is not None:
        rda = PartitioningRdaScheduler if scenario["partitioned"] else RdaScheduler
        extension = rda(policy=policy, config=config)
    governor = None
    if scenario["governor"]:
        governor = OndemandGovernor()
        governor.interval_s = 1e-4  # many ticks on these short runs
    return cls(
        config=config,
        extension=extension,
        machine=Machine(config, llc_model=llc_model),
        governor=governor,
    )


def _observe(cls, scenario: dict, workload: Workload) -> dict:
    """Run one scenario on a kernel class; return everything observable."""
    kernel = _kernel(cls, scenario)
    kernel.tracer = KernelTracer()
    probes: list = []
    timeslice = kernel.config.scheduler.timeslice_s

    def probe(label: str, children: Sequence[int]) -> None:
        kernel.sync()
        probes.append((
            label,
            kernel.now,
            kernel.freq_scale,
            kernel.machine.counters.snapshot().values,
            kernel.machine.rapl.sample(),
        ))
        for k, slices in enumerate(children):
            kernel.engine.schedule(slices * timeslice, probe, f"{label}.{k}", ())

    for spec, proc in zip(workload.processes, scenario["processes"]):
        kernel.spawn(spec, at=proc["offset"])
    for i, (at, children) in enumerate(scenario["probes"]):
        kernel.engine.schedule_at(at, probe, str(i), children)
    if scenario["until"] is not None:
        kernel.run(until=scenario["until"], max_events=200_000)
        probes.append(("until", kernel.now, kernel.engine.events_processed))
    kernel.run(max_events=200_000)
    assert kernel.all_exited
    return {
        "trace": serialize_trace(kernel.tracer),
        "counters": kernel.machine.counters.snapshot().values,
        "rapl": {d: kernel.machine.rapl.read(d) for d in RaplDomain},
        "stats": [t.stats for p in kernel.processes for t in p.threads],
        "events": kernel.engine.events_processed,
        "now": kernel.now,
        "freq_scale": kernel.freq_scale,
        "probes": probes,
    }


def _assert_equivalent(scenario: dict) -> dict:
    workload = _workload(scenario)
    fast = _observe(Kernel, scenario, workload)
    reference = _observe(ReferenceKernel, scenario, workload)
    for key in reference:
        assert fast[key] == reference[key], key
    return fast


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
def _phase(**overrides) -> dict:
    p = {
        "barrier": False,
        "stream": False,
        "instructions": 400_000,
        "wss_frac": 0.4,
        "reuse": 0.95,
        "shared": False,
        "pp": True,
        "subperiods": 1,
    }
    p.update(overrides)
    return p


def _scenario(processes, **overrides) -> dict:
    s = {
        "n_cores": 2,
        "partitioned": False,
        "policy": "strict",
        "governor": False,
        "timeslice_us": 200.0,
        "processes": processes,
        "probes": [],
        "until": None,
    }
    s.update(overrides)
    return s


def _proc(*phases, n_threads=1, nice=0, offset=0.0) -> dict:
    return {
        "n_threads": n_threads,
        "nice": nice,
        "phases": list(phases),
        "offset": offset,
    }


class TestKernelEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(scenario=_SCENARIO)
    def test_identical_to_reference(self, scenario):
        _assert_equivalent(scenario)

    def test_bandwidth_cap_binds(self, monkeypatch):
        # four streams on four cores oversubscribe the bus: the cap must
        # actually change rates for the comparison to cover it
        bound = []
        real = ExecutionModel.apply_bandwidth_cap

        def spy(self, rates):
            capped = real(self, rates)
            bound.append(capped is not rates)
            return capped

        monkeypatch.setattr(ExecutionModel, "apply_bandwidth_cap", spy)
        scenario = _scenario(
            [_proc(_phase(stream=True), _phase()) for _ in range(4)],
            n_cores=4,
            policy="default",
        )
        _assert_equivalent(scenario)
        assert any(bound)

    def test_governor_moves_freq_scale(self):
        # one thread on four cores: utilization 0.25 -> ondemand scales down
        scenario = _scenario(
            [_proc(_phase(), _phase(wss_frac=0.8)), _proc(_phase(), offset=1e-3)],
            n_cores=4,
            governor=True,
            probes=[(2e-4, []), (5e-4, [1]), (1e-3, [])],
        )
        result = _assert_equivalent(scenario)
        assert any(p[2] < 1.0 for p in result["probes"])

    def test_partitioned_barriers_and_nice(self):
        scenario = _scenario(
            [
                _proc(
                    _phase(shared=True),
                    _phase(barrier=True),
                    _phase(stream=True),
                    n_threads=3,
                    nice=-5,
                ),
                _proc(_phase(wss_frac=0.8), _phase(wss_frac=1.5), nice=5, offset=1e-4),
                _proc(_phase(stream=True, pp=False), offset=2e-4),
            ],
            partitioned=True,
            policy="compromise",
            until=5e-4,
            probes=[(1e-4, [1, 2]), (2e-4, [])],
        )
        result = _assert_equivalent(scenario)
        assert "barrier_wait" in result["trace"]

    def test_rearm_orders_after_later_callbacks(self):
        # The probe at t=0 schedules a child at t=q, the instant the first
        # quantum ends, after the core event for it was armed.  The spawn at
        # q/2 refreshes without moving that deadline; re-arming there puts
        # the core event behind the child, as re-pushing every core's event
        # did, so the child sees no context switch yet.
        scenario = _scenario(
            [_proc(_phase(instructions=800_000)), _proc(_phase(), offset=5e-5)],
            n_cores=1,
            policy="default",
            timeslice_us=100.0,
            probes=[(0.0, [1])],
        )
        result = _assert_equivalent(scenario)
        child = next(p for p in result["probes"] if p[0] == "0.0")
        assert f"{child[1]!r} preempt t0 core=0" in result["trace"]
        assert child[3][HwCounter.CONTEXT_SWITCHES] == 0

    def test_oversubscribed_default_policy(self):
        scenario = _scenario(
            [
                _proc(_phase(reuse=r), offset=o)
                for r in (0.05, 0.5, 0.95)
                for o in (0.0, 2e-4)
            ],
            policy="default",
        )
        result = _assert_equivalent(scenario)
        assert "preempt" in result["trace"]


_RATE = st.builds(
    ExecRate,
    seconds_per_instr=st.floats(1e-10, 1e-8),
    dram_per_instr=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)),
    llc_refs_per_instr=st.floats(0.0, 1.0),
    hot_fraction=st.floats(0.0, 1.0),
)


@settings(max_examples=300, deadline=None)
@given(rates=st.lists(_RATE, max_size=12))
def test_bandwidth_cap_identical_to_reference(rates):
    model = ExecutionModel(MachineConfig())
    assert model.apply_bandwidth_cap(list(rates)) == reference_bandwidth_cap(
        model, list(rates)
    )


def test_reference_kernel_is_the_per_core_spec():
    # the reference really keeps one event per busy core
    scenario = _scenario(
        [_proc(_phase()) for _ in range(3)], n_cores=3, policy="default"
    )
    kernel = _kernel(ReferenceKernel, scenario)
    for spec in _workload(scenario).processes:
        kernel.spawn(spec)
    kernel.run(until=1e-5)
    assert sum(e is not None and e.pending for e in kernel._events) == 3
    assert kernel._core_event_handle is None


@pytest.mark.parametrize("n_cores", [1, 4])
def test_kernel_keeps_one_core_event(n_cores):
    scenario = _scenario([_proc(_phase()) for _ in range(6)], n_cores=n_cores)
    kernel = _kernel(Kernel, scenario)
    for spec in _workload(scenario).processes:
        kernel.spawn(spec)
    kernel.run(until=1e-5)
    live = [e for e in kernel.engine._queue if not e[2].cancelled]
    assert [e[2] for e in live] == [kernel._core_event_handle]
