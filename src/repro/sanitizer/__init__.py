"""Runtime invariant checking for the simulated kernel ("KSAN").

The paper's correctness claims — Strict never oversubscribes the LLC, the
waitlist guarantees no starvation, pause/wake on the kernel wait queue never
loses a wakeup (§3.1, §3.4) — are enforced implicitly by the scheduler
implementation.  This package turns them into an explicit runtime oracle: a
pluggable registry of :class:`InvariantChecker` instances observing the
kernel's trace-event stream, engine quiescent points, and the resource
monitor's charge/release ledger, each producing structured
:class:`Violation` reports when an invariant breaks.

See ``docs/SANITIZER.md`` for the invariant catalogue and
:mod:`repro.sanitizer.fuzz` for the randomized scheduler fuzzing harness.
"""

from .. import _lazy

#: public name -> the submodule that defines it, imported on first access;
#: the fuzzing harness (numpy, the simulator) loads only when asked for
_EXPORTS = {
    "KernelSanitizer": "sanitizer",
    "Violation": "violations",
    "InvariantChecker": "invariants",
    "DemandBoundChecker": "invariants",
    "LostWakeupChecker": "invariants",
    "QueueExclusivityChecker": "invariants",
    "DispatchOverlapChecker": "invariants",
    "ConservationChecker": "invariants",
    "CHECKERS": "invariants",
    "register_checker": "invariants",
    "default_checkers": "invariants",
    "FUZZ_CONFIGS": "fuzz",
    "FuzzOutcome": "fuzz",
    "FuzzReport": "fuzz",
    "build_case": "fuzz",
    "run_case": "fuzz",
    "run_fuzz": "fuzz",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
