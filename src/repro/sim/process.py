"""Processes and threads with Linux-like lifecycle states.

A :class:`Thread` walks a *program* (sequence of phases).  The kernel moves
threads between states; this module only holds data and bookkeeping — all
policy lives in :mod:`repro.sim.kernel` and :mod:`repro.sim.cfs`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import SchedulerError
from ..workloads.base import Phase, PhaseKind, ProcessSpec

__all__ = ["ThreadState", "ThreadStats", "Thread", "Process"]


#: CFS weight of nice 0; each nice step scales the weight by ~1.25
NICE_0_WEIGHT = 1024


def nice_to_weight(nice: int) -> float:
    """Unix niceness to a CFS-style load weight (1.25x per step)."""
    if not -20 <= nice <= 19:
        raise SchedulerError(f"nice value {nice} out of range [-20, 19]")
    return NICE_0_WEIGHT / (1.25**nice)


class ThreadState(enum.Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity

    NEW = "new"
    READY = "ready"  # runnable, on a run queue
    RUNNING = "running"  # on a core
    BLOCKED = "blocked"  # waiting on a kernel wait queue (barrier etc.)
    PP_WAIT = "pp_wait"  # paused by the RDA extension (resource waitlist)
    EXITED = "exited"


@dataclass
class ThreadStats:
    """Per-thread accounting, accrued by the execution model."""

    instructions: float = 0.0
    flops: float = 0.0
    llc_refs: float = 0.0
    dram_accesses: float = 0.0
    run_time_s: float = 0.0
    ready_time_s: float = 0.0
    pp_wait_time_s: float = 0.0
    blocked_time_s: float = 0.0
    reload_time_s: float = 0.0
    context_switches: int = 0
    migrations: int = 0  # dispatches onto a different core than last time
    spawn_time_s: float = 0.0
    exit_time_s: Optional[float] = None

    @property
    def turnaround_s(self) -> Optional[float]:
        if self.exit_time_s is None:
            return None
        return self.exit_time_s - self.spawn_time_s


_tids = itertools.count(1)

#: the ThreadStats field that time spent in each state accrues to
_STATE_TIME_BUCKET = {
    ThreadState.RUNNING: "run_time_s",
    ThreadState.READY: "ready_time_s",
    ThreadState.PP_WAIT: "pp_wait_time_s",
    ThreadState.BLOCKED: "blocked_time_s",
}


class Thread:
    """One simulated kernel thread executing a phase program."""

    def __init__(self, process: "Process", program: Sequence[Phase]) -> None:
        self.tid = next(_tids)
        self.process = process
        self.program = list(program)
        self.phase_idx = 0
        #: the phase at ``phase_idx`` (``None`` past the end of the program);
        #: a plain attribute because the kernel reads it on every event
        self.phase: Optional[Phase] = self.program[0] if self.program else None
        #: instructions already retired within the current phase
        self.instr_done = 0.0
        self.state = ThreadState.NEW
        self.core: Optional[int] = None
        self.last_core: Optional[int] = None
        self.vruntime = 0.0
        #: CFS load weight derived from the process nice value; vruntime
        #: advances as wall-runtime / (weight / NICE_0_WEIGHT)
        self.weight = nice_to_weight(process.spec.nice)
        #: kernel-local launch sequence number; run-queue tie-breaks hash
        #: this (not the global tid) so results do not depend on how many
        #: simulations ran earlier in the process
        self.queue_seq = self.tid
        #: pp_id of the progress period opened for the current phase
        self.active_pp: Optional[int] = None
        #: wall-seconds of stall to consume before instructions progress
        #: (cold-cache reload after a context switch + API call overhead)
        self.stall_remaining_s = 0.0
        #: DRAM accesses the pending stall represents (accrued pro rata)
        self.stall_dram_total = 0.0
        #: cached execution rate for the current contention state
        self.seconds_per_instr = 0.0
        self.dram_per_instr = 0.0
        self.llc_refs_per_instr = 0.0
        #: timestamp of the last thread-state change (for time accounting)
        self.state_since = 0.0
        self.stats = ThreadStats()

    # ------------------------------------------------------------------
    @property
    def current_phase(self) -> Optional[Phase]:
        """Read-only alias of :attr:`phase`."""
        return self.phase

    @property
    def done(self) -> bool:
        return self.phase_idx >= len(self.program)

    @property
    def runnable(self) -> bool:
        return self.state in (ThreadState.READY, ThreadState.RUNNING)

    def instr_remaining(self) -> float:
        phase = self.phase
        if phase is None or phase.kind is not PhaseKind.COMPUTE:
            return 0.0
        return max(0.0, phase.instructions - self.instr_done)

    def advance_phase(self) -> None:
        """Move to the next phase of the program."""
        if self.done:
            raise SchedulerError(f"thread {self.tid}: advance past end of program")
        self.phase_idx += 1
        self.instr_done = 0.0
        idx = self.phase_idx
        self.phase = self.program[idx] if idx < len(self.program) else None

    def set_state(self, state: ThreadState, now: float) -> None:
        """Transition states, folding elapsed time into the right counter."""
        elapsed = now - self.state_since
        if elapsed < 0:  # pragma: no cover - defensive
            raise SchedulerError("thread state change went backwards in time")
        bucket = _STATE_TIME_BUCKET.get(self.state)
        if bucket is not None:
            setattr(self.stats, bucket, getattr(self.stats, bucket) + elapsed)
        self.state = state
        self.state_since = now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        phase = self.phase
        where = phase.name if phase else "<done>"
        return (
            f"<Thread {self.tid} ({self.process.name}) {self.state.value} "
            f"phase={where}>"
        )


_pids = itertools.count(1)


class Process:
    """A simulated process: an address space plus one or more threads."""

    def __init__(self, spec: ProcessSpec) -> None:
        self.pid = next(_pids)
        self.spec = spec
        self.threads = [
            Thread(self, spec.program_for(i)) for i in range(spec.n_threads)
        ]
        #: threads currently parked at a barrier, per barrier phase index
        self._barrier_arrivals: dict[int, set[int]] = {}

    @property
    def name(self) -> str:
        return f"{self.spec.name}#{self.pid}"

    @property
    def done(self) -> bool:
        return all(t.state is ThreadState.EXITED for t in self.threads)

    @property
    def live_threads(self) -> list[Thread]:
        return [t for t in self.threads if t.state is not ThreadState.EXITED]

    # ------------------------------------------------------------------
    def barrier_arrive(self, thread: Thread) -> bool:
        """Record arrival at the thread's current barrier phase.

        Returns True when this arrival completes the barrier (all live
        sibling threads whose program contains this barrier have arrived).
        """
        idx = thread.phase_idx
        self._barrier_arrivals.setdefault(idx, set()).add(thread.tid)
        if self.barrier_ready(idx):
            del self._barrier_arrivals[idx]
            return True
        return False

    def barrier_ready(self, idx: int) -> bool:
        """True when every live thread expected at barrier ``idx`` arrived.

        Re-checked when a sibling exits, so a shrinking thread group cannot
        strand waiters.
        """
        arrivals = self._barrier_arrivals.get(idx, set())
        expected = {
            t.tid
            for t in self.live_threads
            if idx < len(t.program) and t.program[idx].kind is PhaseKind.BARRIER
        }
        return bool(expected) and arrivals >= expected

    def barrier_clear(self, idx: int) -> None:
        self._barrier_arrivals.pop(idx, None)

    def pending_barriers(self) -> list[int]:
        return list(self._barrier_arrivals.keys())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name} threads={len(self.threads)}>"
