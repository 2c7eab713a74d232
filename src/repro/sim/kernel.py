"""The simulated OS kernel.

Owns the cores, the default (CFS-like) scheduler, the syscall surface the
workloads exercise, and the *extension hook* the paper's demand-aware
scheduler plugs into ("our extension exists on top of the underlying Linux
default scheduler, and decides which processes should be run by pausing and
resuming processes only at the beginnings and endings of progress periods").

Execution model
---------------
The kernel advances as a rate-based discrete-event simulation.  Between
events every running thread retires instructions at a cached rate derived
from the current co-running set (see :mod:`repro.sim.cpu`).  Any state
change — a quantum expiring, a phase completing, a thread blocking or waking
— triggers:

1. ``_accrue``  — fold the elapsed interval into counters and energy,
2. the mutation itself,
3. ``_refresh`` — dispatch idle cores, recompute everyone's rates (the
   co-running set changed), compute each busy core's deadline (phase done
   or quantum end, whichever is first) and re-arm the kernel's single
   pending core event at the earliest one, the lowest core index winning
   ties.

One event stands in for one per busy core without changing the order in
which anything fires.  Every refresh re-arms it, so it always carries a
sequence number from the latest refresh — as per-core events re-pushed in
core order on every refresh would.  Among those, the earliest deadline
with the lowest core index is the one that would pop first, and it pops in
the same place relative to every other queued event (spawns, governor
ticks, callbacks).  Whichever core event fires, its handler refreshes, so
the later deadlines are recomputed before they could matter.

The hot path is bit-exact with the straightforward per-core code kept in
``tests/sim/test_kernel_equivalence.py``: the same float operations in the
same order, so every simulated output is unchanged to the last bit.

Threads that have not provided progress-period information never touch the
extension and are scheduled directly by the default policy, exactly as the
paper specifies.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Dict, Optional, Sequence

from ..config import MachineConfig, default_machine_config
from ..errors import SchedulerError, SimulationError
from ..mem.contention import ContentionPoint, LlcDemand
from ..perf.counters import HwCounter
from ..workloads.base import Phase, PhaseKind, ProcessSpec, Workload
from .cfs import CfsScheduler
from .cpu import ExecRate
from .engine import Engine, EventHandle
from .machine import Machine
from .process import Process, Thread, ThreadState
from .tracing import TraceEvent, TraceKind
from .waitqueue import WaitQueue

__all__ = ["AdmissionDecision", "SchedulingExtension", "Kernel"]

#: slack for floating-point time/instruction comparisons
_EPS_INSTR = 1e-6
_EPS_TIME = 1e-12

# counters _accrue folds in once per event rather than once per busy core
_INSTRUCTIONS = HwCounter.INSTRUCTIONS
_FP_OPS = HwCounter.FP_OPS
_LLC_REFERENCES = HwCounter.LLC_REFERENCES
_CYCLES = HwCounter.CYCLES


class AdmissionDecision(enum.Enum):
    RUN = "run"
    WAIT = "wait"


class SchedulingExtension(ABC):
    """Hook a demand-aware scheduler implements to intercept PP transitions."""

    kernel: "Kernel"

    def attach(self, kernel: "Kernel") -> None:
        self.kernel = kernel

    @abstractmethod
    def on_pp_begin(self, thread: Thread, request) -> tuple[int, AdmissionDecision]:
        """A thread entered a progress period.  Return (pp_id, decision)."""

    @abstractmethod
    def on_pp_end(self, thread: Thread, pp_id: int) -> Sequence[Thread]:
        """A progress period completed.  Return threads to wake."""

    def on_thread_exit(self, thread: Thread) -> Sequence[Thread]:
        """A thread died; clean up its periods.  Return threads to wake."""
        return ()


class _CoreState:
    """Book-keeping for one CPU core."""

    __slots__ = ("idx", "thread", "quantum_end", "last_tid")

    def __init__(self, idx: int) -> None:
        self.idx = idx
        self.thread: Optional[Thread] = None
        self.quantum_end = 0.0
        self.last_tid: Optional[int] = None


class Kernel:
    """The simulated operating system."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        engine: Optional[Engine] = None,
        extension: Optional[SchedulingExtension] = None,
        machine: Optional[Machine] = None,
        governor=None,
        sanitize=False,
    ) -> None:
        self.config = config or default_machine_config()
        self.engine = engine or Engine()
        self.machine = machine if machine is not None else Machine(self.config)
        #: optional DVFS governor (repro.energy.dvfs) and its current scale
        self.governor = governor
        self.freq_scale = 1.0
        self._busy_core_seconds = 0.0
        self._governor_started = False
        self.cfs = CfsScheduler(self.config.scheduler, self.config.cpu.n_cores)
        self.extension = extension
        if extension is not None:
            extension.attach(self)
        self.cores = [_CoreState(i) for i in range(self.config.cpu.n_cores)]
        #: the one pending core event (see the module docstring)
        self._core_event_handle: Optional[EventHandle] = None
        self.processes: list[Process] = []
        self._barriers: Dict[tuple[int, int], WaitQueue] = {}
        self._last_accrual = self.engine.now
        self._pending_switches = 0
        # Memoized output of _recompute_rates.  The co-running set recurs
        # constantly (every quantum rotation cycles through the same handful
        # of placements), and resolve()/rate()/apply_bandwidth_cap() are pure
        # functions of (phases, sharing scopes, freq_scale) — so rates and
        # cache points are keyed on the ordered (id(phase), pid) signature of
        # the running threads.  Phase objects are frozen and outlive the
        # kernel's processes, so ids are stable for the kernel's lifetime.
        self._rate_cache: Dict[tuple, tuple] = {}
        self._RATE_CACHE_MAX = 4096
        # Behind it, on a miss: each thread's uncapped rate, keyed on
        # (id(phase), hot fraction, freq_scale) — the only inputs
        # ExecutionModel.rate reads.  Ordered many-core sets rarely repeat,
        # but one phase sees few distinct hot fractions.  The contention
        # model and the bandwidth cap still run on every miss, since both
        # depend on the whole set.
        self._phase_rate_cache: Dict[tuple, ExecRate] = {}
        #: each (id(phase), pid)'s LLC demand, built once
        self._demands: Dict[tuple, LlcDemand] = {}
        self._exited_threads = 0
        self._total_threads = 0
        #: optional KernelTracer recording scheduling events
        self.tracer = None
        self._launch_seq = 0
        #: observers receiving every trace event via ``on_kernel_event``
        #: (the sanitizer subscribes here; see :mod:`repro.sanitizer`)
        self.observers: list = []
        #: runtime invariant checker, when ``sanitize`` was requested
        self.sanitizer = None
        if sanitize:
            from ..sanitizer import KernelSanitizer

            self.sanitizer = (
                sanitize if isinstance(sanitize, KernelSanitizer) else KernelSanitizer()
            )
            self.sanitizer.attach(self)

    # ==================================================================
    # public API
    # ==================================================================
    @property
    def now(self) -> float:
        return self.engine.now

    def launch(self, workload: Workload, at: float = 0.0) -> list[Process]:
        """Create every process of a workload, starting at simulated ``at``."""
        return [self.spawn(spec, at=at) for spec in workload.processes]

    def spawn(self, spec: ProcessSpec, at: float = 0.0) -> Process:
        """Create a process whose threads become runnable at time ``at``."""
        process = Process(spec)
        self.processes.append(process)
        self._total_threads += len(process.threads)
        for thread in process.threads:
            thread.queue_seq = self._launch_seq
            self._launch_seq += 1
        self.engine.schedule_at(
            max(at, self.engine.now), self._start_process, process
        )
        return process

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the simulation until all threads exit (or ``until``)."""
        self.engine.run(until=until, max_events=max_events)
        self._accrue(self.engine.now)
        if until is None and self._exited_threads != self._total_threads:
            raise SimulationError(
                "simulation stalled with live threads:\n" + self.diagnose()
            )
        if self.sanitizer is not None and self.all_exited:
            self.sanitizer.finalize()
            if self.sanitizer.strict:
                self.sanitizer.check()

    @property
    def all_exited(self) -> bool:
        return self._exited_threads == self._total_threads

    def sync(self) -> None:
        """Bring counters and energy up to the current simulated time.

        Call before reading counters or RAPL mid-simulation (the execution
        model folds progress in lazily, at events).
        """
        self._accrue(self.engine.now)

    def _emit(self, kind, thread: Thread, detail: str = "") -> None:
        if self.tracer is None and not self.observers:
            return
        event = TraceEvent(
            time_s=self.engine.now,
            kind=kind,
            tid=thread.tid,
            core=thread.core,
            detail=detail,
        )
        if self.tracer is not None:
            self.tracer.record(event)
        for observer in self.observers:
            observer.on_kernel_event(self, event)

    def diagnose(self) -> str:
        """Describe where every live thread is stuck (deadlock forensics)."""
        lines = []
        for proc in self.processes:
            for t in proc.threads:
                if t.state is ThreadState.EXITED:
                    continue
                phase = t.phase
                lines.append(
                    f"  tid={t.tid} {proc.name} state={t.state.value} "
                    f"phase={phase.name if phase else '<done>'} "
                    f"idx={t.phase_idx}"
                )
        return "\n".join(lines) or "  (none)"

    # ==================================================================
    # process / thread lifecycle
    # ==================================================================
    def _governor_tick(self) -> None:
        """Periodic DVFS evaluation (cpufreq sampling)."""
        assert self.governor is not None
        self._accrue(self.engine.now)
        window = self.governor.interval_s * self.config.cpu.n_cores
        utilization = min(1.0, self._busy_core_seconds / window) if window else 0.0
        self._busy_core_seconds = 0.0
        new_scale = self.governor.target_scale(utilization)
        if new_scale != self.freq_scale:
            self.freq_scale = new_scale
            self._refresh()  # rates changed
        if not self.all_exited:
            self.engine.schedule(self.governor.interval_s, self._governor_tick)

    def _start_process(self, process: Process) -> None:
        if self.governor is not None and not self._governor_started:
            self._governor_started = True
            self.engine.schedule(self.governor.interval_s, self._governor_tick)
        self._accrue(self.engine.now)
        for thread in process.threads:
            thread.state_since = self.engine.now
            thread.stats.spawn_time_s = self.engine.now
            if self._enter_phases(thread) == "run":
                thread.set_state(ThreadState.READY, self.engine.now)
                self.cfs.enqueue(thread)
        self._refresh()

    def _exit_thread(self, thread: Thread) -> None:
        self._emit(TraceKind.EXIT, thread)
        thread.set_state(ThreadState.EXITED, self.engine.now)
        thread.stats.exit_time_s = self.engine.now
        self._exited_threads += 1
        if self.extension is not None:
            for woken in self.extension.on_thread_exit(thread):
                self._wake_pp_owner(woken)
        # A shrinking thread group must not strand barrier waiters: if this
        # was the last thread a barrier was waiting on, release it now.
        process = thread.process
        for idx in process.pending_barriers():
            if process.barrier_ready(idx):
                process.barrier_clear(idx)
                self._release_barrier(process, idx)

    # ==================================================================
    # phase machinery
    # ==================================================================
    def _enter_phases(self, thread: Thread) -> str:
        """Process phase entries until the thread can run, parks, or exits.

        Returns ``"run"`` (thread is in an admitted compute phase),
        ``"parked"`` (blocked at a barrier or on the PP waitlist) or
        ``"exited"``.
        """
        while True:
            if thread.done:
                self._exit_thread(thread)
                return "exited"
            phase = thread.phase
            assert phase is not None
            if phase.kind is PhaseKind.BARRIER:
                if thread.process.barrier_arrive(thread):
                    self._release_barrier(thread.process, thread.phase_idx)
                    thread.advance_phase()
                    continue
                queue = self._barriers.setdefault(
                    (thread.process.pid, thread.phase_idx),
                    WaitQueue(f"barrier:{thread.process.pid}:{thread.phase_idx}"),
                )
                self._emit(TraceKind.BARRIER_WAIT, thread, detail=phase.name)
                queue.park(thread)
                thread.set_state(ThreadState.BLOCKED, self.engine.now)
                return "parked"
            # compute phase
            if phase.pp is not None and self.extension is not None:
                request = phase.period_request(thread.process.pid)
                pp_id, decision = self.extension.on_pp_begin(thread, request)
                thread.active_pp = pp_id
                self.machine.counters.add(HwCounter.PP_BEGIN_CALLS, 1)
                if decision is AdmissionDecision.WAIT:
                    self.machine.counters.add(HwCounter.PP_DENIALS, 1)
                    self._emit(TraceKind.PP_DENY, thread, detail=phase.name)
                    thread.set_state(ThreadState.PP_WAIT, self.engine.now)
                    return "parked"
                self._emit(TraceKind.PP_BEGIN, thread, detail=phase.name)
            return "run"

    def _release_barrier(self, process: Process, phase_idx: int) -> None:
        """Last arrival: wake all siblings parked at this barrier."""
        queue = self._barriers.pop((process.pid, phase_idx), None)
        if queue is None:
            return
        for sibling in queue.wake_all():
            self._emit(TraceKind.BARRIER_RELEASE, sibling)
            sibling.advance_phase()
            if self._enter_phases(sibling) == "run":
                sibling.set_state(ThreadState.READY, self.engine.now)
                self.cfs.enqueue(sibling, waking=True)

    def _wake_pp_owner(self, thread: Thread) -> None:
        """The RDA extension admitted a waiting period; resume its owner."""
        if thread.state is not ThreadState.PP_WAIT:
            raise SchedulerError(
                f"waking thread {thread.tid} not in PP_WAIT (is {thread.state})"
            )
        self._emit(TraceKind.PP_WAKE, thread)
        thread.set_state(ThreadState.READY, self.engine.now)
        self.cfs.enqueue(thread, waking=True)

    def _complete_phase(self, core: _CoreState) -> None:
        """The running thread finished its compute phase on this core."""
        thread = core.thread
        assert thread is not None
        phase = thread.phase
        assert phase is not None
        self._emit(TraceKind.PHASE_DONE, thread, detail=phase.name)
        if phase.pp is not None and self.extension is not None:
            self.machine.counters.add(HwCounter.PP_END_CALLS, 1)
            pp_id = thread.active_pp
            thread.active_pp = None
            if pp_id is not None:
                for woken in self.extension.on_pp_end(thread, pp_id):
                    self._wake_pp_owner(woken)
        thread.advance_phase()
        if self._enter_phases(thread) == "run":
            return  # stays on this core; _refresh recomputes rates
        core.thread = None
        thread.core = None

    # ==================================================================
    # accrual: fold elapsed time into counters and energy
    # ==================================================================
    def _accrue(self, now: float) -> None:
        dt = now - self._last_accrual
        if dt < -_EPS_TIME:
            raise SimulationError("accrual went backwards in time")
        total_dram = 0.0
        active = 0
        if dt > 0:
            # Each machine-wide counter is read once, takes every busy core's
            # amount in core order — the same float additions as one
            # CounterSet.add per core — and is stored once.
            values = self.machine.counters._values
            instructions = values[_INSTRUCTIONS]
            fp_ops = values[_FP_OPS]
            llc_refs = values[_LLC_REFERENCES]
            cycles = values[_CYCLES]
            core_cycles = dt * self.config.cpu.frequency_hz * self.freq_scale
            busy = self._busy_core_seconds
            for core in self.cores:
                thread = core.thread
                if thread is None:
                    continue
                active += 1
                # continuous fair-share accounting, weighted by nice level
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
                busy += dt
                spi = thread.seconds_per_instr
                if remaining > 0.0 and spi > 0.0:
                    phase = thread.phase
                    n = remaining / spi
                    # n = min(n, thread.instr_remaining()) for a compute
                    # phase, with min/max spelled as the comparisons they make
                    left = phase.instructions - thread.instr_done
                    left = left if left > 0.0 else 0.0
                    n = left if left < n else n
                    thread.instr_done += n
                    flops = n * phase.flops_per_instr
                    llc = n * thread.llc_refs_per_instr
                    dram = n * thread.dram_per_instr
                    stats = thread.stats
                    stats.instructions += n
                    stats.flops += flops
                    stats.llc_refs += llc
                    stats.dram_accesses += dram
                    total_dram += dram
                    if n < 0 or flops < 0 or llc < 0:
                        raise _decremented(
                            (_INSTRUCTIONS, n), (_FP_OPS, flops), (_LLC_REFERENCES, llc)
                        )
                    instructions += n
                    fp_ops += flops
                    llc_refs += llc
                if core_cycles < 0:
                    raise _decremented((_CYCLES, core_cycles))
                cycles += core_cycles
            values[_INSTRUCTIONS] = instructions
            values[_FP_OPS] = fp_ops
            values[_LLC_REFERENCES] = llc_refs
            values[_CYCLES] = cycles
            self._busy_core_seconds = busy
        self.machine.accrue_interval(
            now,
            active,
            total_dram,
            self._pending_switches,
            freq_scale=self.freq_scale,
        )
        self._pending_switches = 0
        self._last_accrual = now

    # ==================================================================
    # dispatch, rate recomputation, event scheduling
    # ==================================================================
    def _refresh(self) -> None:
        placed = self._dispatch()
        self._recompute_rates(placed)
        self._reschedule_all()

    def _dispatch(self) -> list[tuple[_CoreState, Thread, bool]]:
        """Fill idle cores from the run queue.

        Returns (core, thread, switched) for each placement; ``switched``
        is True when the core last ran a *different* thread, in which case
        the incoming thread must re-warm its cache share.
        """
        idle = [c for c in self.cores if c.thread is None]
        if not idle:
            return []
        placed: list[tuple[_CoreState, Thread, bool]] = []
        n_runnable = self.cfs.n_queued + len(self.cores) - len(idle)
        for core in idle:
            thread = self.cfs.pick_next()
            if thread is None:
                break
            n_runnable_here = n_runnable  # count includes this thread already
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
            core.quantum_end = self.engine.now + self.cfs.timeslice(n_runnable_here)
            placed.append((core, thread, switched))
        return placed

    def _recompute_rates(
        self, placed: Sequence[tuple[_CoreState, Thread, bool]] = ()
    ) -> None:
        """Re-derive every running thread's rate from the co-running set."""
        running = [c.thread for c in self.cores if c.thread is not None]
        if not running:
            return
        key = (
            self.freq_scale,
            tuple([(id(t.phase), t.process.pid) for t in running]),
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
        # Charge switch + cold-reload cost to threads that just landed on a
        # core previously running someone else (figure 1's reload effect).
        exec_model = self.machine.exec_model
        for core, thread, switched in placed:
            if not switched:
                continue
            thread.stall_remaining_s += self.config.scheduler.context_switch_s
            if self.config.scheduler.model_cache_reload:
                phase = thread.phase
                assert phase is not None
                reload = exec_model.reload_cost(phase, points[running.index(thread)])
                thread.stall_remaining_s += reload.seconds
                thread.stall_dram_total += reload.dram_accesses

    def _rates_for(self, running: Sequence[Thread]) -> tuple:
        """Slow path: derive (rate triples, cache points) for a co-running set."""
        demands = []
        phases: list[Phase] = []
        known = self._demands
        for t in running:
            phase = t.phase
            assert phase is not None and phase.kind is PhaseKind.COMPUTE
            phases.append(phase)
            pid = t.process.pid
            demand = known.get((id(phase), pid))
            if demand is None:
                demand = known[id(phase), pid] = LlcDemand(
                    wss_bytes=phase.wss_bytes,
                    reuse=phase.reuse,
                    sharing_key=phase.sharing_scope(pid),
                )
            demands.append(demand)
        points = self.machine.llc_model.resolve(demands)
        memo = self._phase_rate_cache
        freq_scale = self.freq_scale
        rates = []
        for phase, point in zip(phases, points):
            memo_key = (id(phase), point.hot_fraction, freq_scale)
            rate = memo.get(memo_key)
            if rate is None:
                if len(memo) >= self._RATE_CACHE_MAX:
                    memo.clear()
                rate = memo[memo_key] = self._uncapped_rate(phase, point)
            rates.append(rate)
        rates = self.machine.exec_model.apply_bandwidth_cap(rates)
        return (
            tuple([
                (r.seconds_per_instr, r.dram_per_instr, r.llc_refs_per_instr)
                for r in rates
            ]),
            tuple(points),
        )

    def _uncapped_rate(self, phase: Phase, point: ContentionPoint) -> ExecRate:
        """One thread's rate at a contention point, before the bandwidth cap."""
        exec_model = self.machine.exec_model
        base = exec_model.rate(phase, point, freq_scale=self.freq_scale)
        overhead = 0.0
        if self.extension is not None and phase.pp is not None:
            overhead = exec_model.pp_overhead_fraction(phase, base.seconds_per_instr)
        return exec_model.rate(phase, point, overhead, freq_scale=self.freq_scale)

    def _reschedule_all(self) -> None:
        """Re-arm the single pending core event at the earliest deadline."""
        engine = self.engine
        now = engine.now
        if self._core_event_handle is not None:
            engine.cancel(self._core_event_handle)
            self._core_event_handle = None
        first: Optional[_CoreState] = None
        first_time = now
        for core in self.cores:
            thread = core.thread
            if thread is None:
                continue
            spi = thread.seconds_per_instr
            if spi <= 0.0:
                raise SimulationError(
                    f"thread {thread.tid} has no execution rate"
                )
            # instr_remaining() and min/max inlined, as in _accrue
            left = thread.phase.instructions - thread.instr_done
            left = left if left > 0.0 else 0.0
            t_done = now + thread.stall_remaining_s + left * spi
            quantum_end = core.quantum_end
            if now > quantum_end:
                quantum_end = now
            t_event = quantum_end if quantum_end < t_done else t_done
            if now > t_event:
                t_event = now
            # strict <: the lowest core index wins ties
            if first is None or t_event < first_time:
                first = core
                first_time = t_event
        if first is not None:
            self._core_event_handle = engine.schedule_at(
                first_time, self._core_event, first
            )

    # ==================================================================
    # event handler
    # ==================================================================
    def _core_event(self, core: _CoreState) -> None:
        self._core_event_handle = None  # consumed by the engine
        now = self.engine.now
        self._accrue(now)
        thread = core.thread
        if thread is None:  # pragma: no cover - cancelled races
            self._refresh()
            return
        phase_done = (
            thread.stall_remaining_s <= _EPS_TIME
            and thread.instr_remaining() <= _EPS_INSTR
        )
        if phase_done:
            self._complete_phase(core)
        elif now + _EPS_TIME >= core.quantum_end:
            if self.cfs.n_queued > 0:
                # Preempt: back of the fairness queue, core picks next.
                self._emit(TraceKind.PREEMPT, thread)
                thread.set_state(ThreadState.READY, now)
                thread.core = None
                core.thread = None
                self.cfs.enqueue(thread)
            else:
                # Nothing else to run; extend the quantum.
                core.quantum_end = now + self.cfs.timeslice(1)
        self._refresh()


def _decremented(*amounts: tuple[HwCounter, float]) -> SimulationError:
    """The error ``CounterSet.add`` raises, for the first negative amount."""
    counter, amount = next((c, a) for c, a in amounts if a < 0)
    return SimulationError(f"counter {counter} decremented by {amount}")
