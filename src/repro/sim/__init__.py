"""Operating-system and machine substrate (discrete-event simulation).

This subpackage replaces the paper's Linux 4.6.0 testbed.  It provides:

* :mod:`repro.sim.engine` — the event loop and simulated clock,
* :mod:`repro.sim.process` — processes and threads with Linux-like states,
* :mod:`repro.sim.runqueue` / :mod:`repro.sim.cfs` — a CFS-like fair
  scheduler (the "default" policy the paper compares against),
* :mod:`repro.sim.waitqueue` — kernel wait queues with wake events (the
  mechanism the paper's extension uses to pause/resume threads),
* :mod:`repro.sim.cpu` / :mod:`repro.sim.machine` — the execution and
  energy model of the simulated Xeon E5-2420,
* :mod:`repro.sim.kernel` — the syscall surface and the extension hook the
  demand-aware scheduler plugs into.
"""

from .. import _lazy

#: public name -> the submodule that defines it, imported on first access
_EXPORTS = {
    "Engine": "engine",
    "EventHandle": "engine",
    "Process": "process",
    "Thread": "process",
    "ThreadState": "process",
    "Kernel": "kernel",
    "SchedulingExtension": "kernel",
    "AdmissionDecision": "kernel",
    "Machine": "machine",
    "KernelTracer": "tracing",
    "TraceKind": "tracing",
    "render_timeline": "tracing",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
