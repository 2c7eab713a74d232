"""The sanitizer facade: wires checkers into a kernel and collects reports.

Usage — either let the kernel build one::

    kernel = Kernel(extension=scheduler, sanitize=True)
    kernel.launch(workload)
    kernel.run()  # raises SanitizerError on any violation

or attach an explicit instance to collect violations without raising::

    san = KernelSanitizer(strict=False)
    kernel = Kernel(extension=scheduler, sanitize=san)
    kernel.launch(workload)
    kernel.run()
    assert san.ok, san.summary()

The sanitizer subscribes to three observation points:

* ``kernel.observers`` — every trace event (``on_kernel_event``),
* ``kernel.engine.post_event_hooks`` — quiescent points after each engine
  event, where global state must be self-consistent,
* ``scheduler.resources.observers`` — the charge/release/resize ledger of
  the resource monitor (when an RDA extension is attached).

An admission core with no kernel (the admission service) is watched through
:meth:`KernelSanitizer.attach_core`: every ledger change is a quiescent point.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Sequence

from ..core.progress_period import PeriodRequest
from ..errors import SanitizerError
from ..sim.tracing import TraceEvent
from .invariants import InvariantChecker, default_checkers
from .violations import Violation

__all__ = ["KernelSanitizer"]

#: hard cap on collected violations (a broken invariant can fire per event)
_MAX_VIOLATIONS = 1000


class KernelSanitizer:
    """Runtime invariant checking for a simulated kernel (:meth:`attach`)
    or a kernel-less admission core (:meth:`attach_core`).

    Args:
        checkers: checker instances to run; defaults to one of each
            registered checker (see :data:`repro.sanitizer.CHECKERS`).
        window: how many recent trace events each violation report carries.
        strict: when True, :meth:`Kernel.run` raises
            :class:`~repro.errors.SanitizerError` at the end of a completed
            simulation if any violation was recorded; when False the caller
            inspects :attr:`violations` itself (the fuzzer's mode).
    """

    def __init__(
        self,
        checkers: Optional[Sequence[InvariantChecker]] = None,
        window: int = 16,
        strict: bool = True,
    ) -> None:
        self.checkers = (
            list(checkers) if checkers is not None else default_checkers()
        )
        self.window: deque = deque(maxlen=window)
        self.violations: list[Violation] = []
        self.dropped = 0
        self.strict = strict
        self.kernel = None
        #: the watched admission core; None under the default policy
        self.scheduler = None
        self.clock: Callable[[], float] = lambda: 0.0  # stamps violations
        self._attached = False
        self._finalized = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, kernel) -> "KernelSanitizer":
        """Subscribe to a kernel's event stream, engine and resource table."""
        extension = kernel.extension
        self._bind(extension if hasattr(extension, "resources") else None)
        self.kernel = kernel
        self.clock = lambda: kernel.now
        kernel.observers.append(self)
        kernel.engine.post_event_hooks.append(self.on_quiescent)
        return self

    def attach_core(self, core) -> "KernelSanitizer":
        """Watch an :class:`~repro.core.admission.AdmissionCore` that runs
        without a kernel.  Only the ledger checkers (``conservation``,
        ``demand-bound``) apply; they check after every ledger change."""
        self._bind(core)
        self.clock = lambda: core.monitor.clock()
        return self

    def _bind(self, core) -> None:
        if self._attached:
            raise SanitizerError("sanitizer is already attached")
        self._attached = True
        self.scheduler = core
        if core is not None:
            core.resources.observers.append(self)
        for checker in self.checkers:
            checker.bind(self)

    # ------------------------------------------------------------------
    # observation fan-out
    # ------------------------------------------------------------------
    def on_kernel_event(self, kernel, event: TraceEvent) -> None:
        self.window.append(event)
        for checker in self.checkers:
            checker.on_event(event)

    def on_quiescent(self, now: float) -> None:
        for checker in self.checkers:
            checker.on_quiescent(now)

    def on_charge(self, request: PeriodRequest, added_bytes: int) -> None:
        for checker in self.checkers:
            checker.on_charge(request, added_bytes)
        self._ledger_quiescent()

    def on_release(self, request: PeriodRequest, removed_bytes: int) -> None:
        for checker in self.checkers:
            checker.on_release(request, removed_bytes)
        self._ledger_quiescent()

    def on_resize(self, request: PeriodRequest, new_bytes: int, delta: int) -> None:
        for checker in self.checkers:
            checker.on_resize(request, new_bytes, delta)
        self._ledger_quiescent()

    def _ledger_quiescent(self) -> None:
        # With no kernel there are no engine events: a ledger change is
        # the only point where the core's state settles.
        if self.kernel is None and self.scheduler is not None:
            self.on_quiescent(self.clock())

    def finalize(self) -> list[Violation]:
        """Run end-of-run checks (idempotent); returns violations."""
        if not self._finalized:
            self._finalized = True
            now = self.clock()
            for checker in self.checkers:
                checker.finalize(now)
        return self.violations

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(
        self, invariant: str, message: str, tid: Optional[int] = None
    ) -> None:
        """Record one violation with the current event window attached."""
        if len(self.violations) >= _MAX_VIOLATIONS:
            self.dropped += 1
            return
        self.violations.append(
            Violation(
                invariant=invariant,
                time_s=self.clock(),
                message=message,
                tid=tid,
                window=tuple(self.window),
            )
        )

    @property
    def ok(self) -> bool:
        return not self.violations

    def check(self) -> None:
        """Raise :class:`SanitizerError` if any violation was recorded."""
        if self.violations:
            raise SanitizerError(self.summary())

    def summary(self) -> str:
        """Human-readable digest of everything found (or a clean bill)."""
        if not self.violations:
            return "sanitizer: 0 violations"
        lines = [
            f"sanitizer: {len(self.violations)} invariant violation(s)"
            + (f" (+{self.dropped} dropped)" if self.dropped else "")
        ]
        for v in self.violations:
            lines.append(v.describe())
        return "\n".join(lines)
