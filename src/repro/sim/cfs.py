"""CFS-like fair scheduler — the "default OS scheduling policy".

Captures the properties of Linux's Completely Fair Scheduler that matter to
the paper's evaluation:

* runnable threads are picked by minimum virtual runtime (fairness),
* all cores are kept busy whenever threads are runnable (max utilization),
* the timeslice shrinks as the number of runnable threads grows
  (``slice = max(sched_latency / threads_per_core, min_granularity)``),
  which is what makes heavily oversubscribed workloads context-switch — and
  reload their caches — frequently (figure 1's round-robin behaviour),
* a thread waking up is placed with vruntime no lower than the current
  minimum, so sleepers get a modest boost but cannot monopolize a core.

Deliberate simplifications (documented in DESIGN.md): a single global run
queue instead of per-CPU queues with load balancing, uniform nice values,
and no wakeup preemption — a woken thread waits for a core to become free
or for a quantum to end.
"""

from __future__ import annotations

from typing import Optional

from ..config import SchedulerConfig
from .process import Thread
from .runqueue import RunQueue

__all__ = ["CfsScheduler"]

#: CFS targeted scheduling latency (one full rotation of the run queue).
SCHED_LATENCY_S = 0.006


class CfsScheduler:
    """Fair pick-next policy plus timeslice computation."""

    def __init__(self, config: SchedulerConfig, n_cores: int) -> None:
        self.config = config
        self.n_cores = n_cores
        self.queue = RunQueue()
        self._min_vruntime = 0.0
        #: runnable count -> quantum, a pure function of the two
        self._slices: dict[int, float] = {}

    # ------------------------------------------------------------------
    @property
    def n_queued(self) -> int:
        return len(self.queue)

    def enqueue(self, thread: Thread, *, waking: bool = False) -> None:
        """Make a thread runnable.

        A waking thread's vruntime is floored to the queue's minimum so it
        neither starves the queue (vruntime too low after a long sleep) nor
        gets penalized for sleeping.
        """
        if waking:
            floor = self._current_min()
            if thread.vruntime < floor:
                thread.vruntime = floor
        self.queue.push(thread)

    def dequeue(self, thread: Thread) -> bool:
        return self.queue.remove(thread)

    def pick_next(self) -> Optional[Thread]:
        """Pop the runnable thread with minimum vruntime."""
        thread = self.queue.pop()
        if thread is not None:
            self._min_vruntime = max(self._min_vruntime, thread.vruntime)
        return thread

    def _current_min(self) -> float:
        queued = self.queue.min_vruntime()
        if queued is None:
            return self._min_vruntime
        return max(self._min_vruntime, min(self._min_vruntime, queued))

    # ------------------------------------------------------------------
    def charge(self, thread: Thread, runtime_s: float) -> None:
        """Account actual runtime into the thread's virtual runtime."""
        thread.vruntime += runtime_s

    def timeslice(self, n_running: int) -> float:
        """Quantum length given the number of runnable+running threads.

        Mirrors CFS: each thread gets an equal share of the scheduling
        latency per core, floored at the minimum granularity.
        """
        quantum = self._slices.get(n_running)
        if quantum is None:
            per_core = max(1.0, n_running / self.n_cores)
            quantum = self._slices[n_running] = max(
                self.config.min_granularity_s,
                min(self.config.timeslice_s, SCHED_LATENCY_S / per_core),
            )
        return quantum
