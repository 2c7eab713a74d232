"""Parallel experiment fleet: process fan-out with a content-addressed cache.

The paper's evaluation (§4) is a large grid — workloads × policies ×
jittered repeats × ablation axes — of *independent, deterministic*
simulations.  This module schedules that grid the way the consolidation
schedulers the paper cites schedule jobs: fan the runs out across worker
processes, and never recompute a run whose inputs are already known.

Three pieces:

* :func:`run_key` — a content hash over everything that determines a run's
  result: the workload spec, policy parameters, machine configuration,
  arrival offsets/seed, event budget and sanitize flag.  Two runs with the
  same key produce identical :class:`~repro.perf.stat.PerfReport` values.
* :class:`ResultCache` — a directory (``.repro-cache/`` by default) of one
  JSON document per key.  Re-sweeps and interrupted sweeps resume from it
  instantly; results are written atomically as each run completes.
* :func:`run_grid` — executes a sequence of :class:`RunRequest` across
  worker processes (one process per run, at most ``jobs`` concurrent), with
  a per-run timeout and crashed-worker isolation: a pathological simulation
  surfaces as a structured :class:`RunFailure` record while the rest of the
  grid completes.  ``jobs=1`` executes serially in-process and is
  numerically identical to calling the runner directly.
"""

from __future__ import annotations

import enum
import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence, Union

from ..config import DEFAULT_CACHE_DIR, MachineConfig
from ..core.policy import SchedulingPolicy
from ..errors import ReproError
from ..perf.stat import PerfReport
from ..workloads.base import Workload
from .store import report_from_dict, report_to_full_dict

__all__ = [
    "DEFAULT_CACHE_DIR",
    "RunRequest",
    "RunSuccess",
    "RunFailure",
    "RunOutcome",
    "ResultCache",
    "TaskOutcome",
    "fan_out",
    "run_key",
    "run_grid",
    "print_progress",
]

#: bump to invalidate every cached result (e.g. after a model change that
#: alters what a given spec simulates to)
CACHE_VERSION = 1


# ----------------------------------------------------------------------
# Run specification + content hash
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunRequest:
    """One cell of an experiment grid.

    Carries everything :func:`~repro.experiments.runner.run_workload_full`
    needs, fully materialized (no factories) so it can be hashed and shipped
    to a worker process.  ``seed`` is provenance for the arrival jitter that
    produced ``arrival_offsets``; both participate in the run key.  ``tag``
    is a caller-side label (e.g. the factor levels of a sweep row) — it does
    *not* affect the key.
    """

    workload: Workload
    policy: Optional[SchedulingPolicy] = None
    config: Optional[MachineConfig] = None
    arrival_offsets: Optional[tuple[float, ...]] = None
    max_events: Optional[int] = 5_000_000
    sanitize: bool = False
    seed: Optional[int] = None
    tag: str = ""

    @property
    def policy_name(self) -> str:
        return self.policy.name if self.policy else "Linux Default"


def _canonical(obj: Any) -> Any:
    """Reduce a spec object to plain JSON-stable data, recursively.

    Dataclasses carry their class name so that two policy types with equal
    parameters hash differently; dict keys are stringified and sorted by
    ``json.dumps(sort_keys=True)`` at encoding time.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        out: Dict[str, Any] = {"__class__": type(obj).__qualname__}
        for f in fields(obj):
            out[f.name] = _canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__qualname__}.{obj.name}"
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise ReproError(
        f"cannot canonicalize {type(obj).__qualname__!r} for run hashing"
    )


def run_key(request: RunRequest) -> str:
    """Content hash identifying a run's result (sha256 hex digest).

    Everything that can change the simulated outcome is hashed: workload
    spec, policy parameters, machine config (``None`` means the committed
    default — hashed as such so changing the default via an explicit config
    still distinguishes), arrival offsets, seed, event budget and sanitize
    flag.  The ``tag`` is excluded: it is presentation, not physics.
    """
    spec = {
        "cache_version": CACHE_VERSION,
        "workload": _canonical(request.workload),
        "policy": _canonical(request.policy),
        "config": _canonical(request.config),
        "arrival_offsets": _canonical(
            list(request.arrival_offsets)
            if request.arrival_offsets is not None
            else None
        ),
        "max_events": request.max_events,
        "sanitize": request.sanitize,
        "seed": request.seed,
    }
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSuccess:
    """A completed run: the perf report, plus where it came from."""

    request: RunRequest
    key: str
    report: PerfReport
    cached: bool = False
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True)
class RunFailure:
    """A run that did not produce a report.

    ``kind`` is one of ``"error"`` (the simulation raised), ``"crash"``
    (the worker process died — segfault, OOM kill, ...) or ``"timeout"``
    (the per-run wall-clock budget elapsed and the worker was terminated).
    Failures are never cached: a re-sweep retries them.
    """

    request: RunRequest
    key: str
    kind: str
    message: str
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return False

    def describe(self) -> str:
        return (
            f"{self.request.workload.name} under {self.request.policy_name}: "
            f"{self.kind} — {self.message}"
        )


RunOutcome = Union[RunSuccess, RunFailure]


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed store of perf reports: one JSON file per run key.

    Layout: ``<root>/<key[:2]>/<key>.json`` (fan-out subdirectories keep any
    single directory small).  Documents hold the full-precision report from
    :func:`~repro.experiments.store.report_to_full_dict` plus human-oriented
    provenance.  Writes are atomic (tmp file + rename), so an interrupted
    sweep never leaves a torn entry; invalidation is by key construction —
    any change to the spec, machine config or :data:`CACHE_VERSION` yields a
    different key, and stale entries are simply never read again.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[PerfReport]:
        """The cached report for ``key``, or ``None`` (unreadable = miss)."""
        path = self.path(key)
        try:
            doc = json.loads(path.read_text())
            return report_from_dict(doc["report"])
        except (OSError, ValueError, KeyError, ReproError):
            return None

    def put(self, key: str, report: PerfReport, request: RunRequest) -> Path:
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "key": key,
            "cache_version": CACHE_VERSION,
            "workload": request.workload.name,
            "policy": request.policy_name,
            "seed": request.seed,
            "report": report_to_full_dict(report),
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True))
        tmp.replace(path)
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))


def _as_cache(cache: Union[ResultCache, str, Path, None]) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _execute(request: RunRequest) -> PerfReport:
    """Run one request to completion in the current process."""
    from .runner import run_workload_full  # deferred: runner imports us

    result = run_workload_full(
        request.workload,
        request.policy,
        config=request.config,
        max_events=request.max_events,
        arrival_offsets=request.arrival_offsets,
        sanitize=request.sanitize,
    )
    return result.report


def _grid_worker(request: RunRequest) -> Dict[str, Any]:
    """Fan-out payload function for one grid cell (runs in a worker).

    Looks ``_execute`` up through the module so test monkeypatches carried
    across a fork are honoured.
    """
    import repro.experiments.parallel as _self

    return report_to_full_dict(_self._execute(request))


# ----------------------------------------------------------------------
# Generic process fan-out (shared by the grid and the fuzz campaign)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskOutcome:
    """How one fanned-out task settled.

    ``status`` is ``"ok"`` (``result`` holds the worker's picklable return
    value), ``"error"`` (the function raised), ``"crash"`` (the worker
    process died), ``"timeout"`` (the per-task budget elapsed and the
    worker was terminated) or ``"skipped"`` (the campaign's stop condition
    fired before the task was launched).
    """

    index: int
    status: str
    result: Any = None
    message: str = ""
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _task_main(conn, worker, payload) -> None:
    """Child-process entry: run one task, ship the result back, exit."""
    try:
        conn.send(("ok", worker(payload)))
    except BaseException as exc:  # noqa: BLE001 — everything becomes a record
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):  # parent gave up on us
            pass
    finally:
        conn.close()


def fan_out(
    worker: Callable[[Any], Any],
    payloads: Sequence[Any],
    jobs: Optional[int] = None,
    timeout_s: Optional[float] = None,
    poll_interval_s: float = 0.01,
    on_settle: Optional[Callable[[TaskOutcome, int], None]] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> list[TaskOutcome]:
    """Run ``worker(payload)`` for each payload across worker processes.

    The execution model the experiment grid pioneered, factored out for any
    independent-task campaign (``run_grid``, the parallel fuzz campaign):
    one process per task — never a reusable pool — so a segfaulting or
    OOM-killed worker takes down only its own task, and a per-task timeout
    is a plain ``terminate()``.  At most ``jobs`` processes are alive at a
    time; results return in payload order.

    Args:
        worker: a module-level callable (it crosses the process boundary);
            its return value must be picklable.
        jobs: concurrent worker processes (``None`` → ``os.cpu_count()``).
        timeout_s: per-task wall-clock budget.
        on_settle: callback ``(outcome, in_flight)`` fired as each task
            settles (out of order), for progress reporting.
        stop: checked before each launch; once it returns True, remaining
            unlaunched tasks settle as ``"skipped"`` (already-running tasks
            finish normally) — how a campaign honours a wall-clock budget.
    """
    payloads = list(payloads)
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    ctx = multiprocessing.get_context()
    queue = list(range(len(payloads)))  # indices not yet launched
    running: dict[int, tuple] = {}  # index -> (proc, conn, started_at)
    outcomes: list[Optional[TaskOutcome]] = [None] * len(payloads)

    def launch(index: int) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_task_main, args=(child_conn, worker, payloads[index]),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # child's end lives in the child now
        running[index] = (proc, parent_conn, time.monotonic())

    def settle(index: int, outcome: TaskOutcome) -> None:
        proc, conn, _ = running.pop(index)
        conn.close()
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover — stuck after sending
            proc.terminate()
            proc.join()
        outcomes[index] = outcome
        if on_settle is not None:
            on_settle(outcome, min(jobs, len(running) + len(queue) + 1))

    try:
        while queue or running:
            while queue and len(running) < jobs:
                index = queue.pop(0)
                if stop is not None and stop():
                    outcomes[index] = TaskOutcome(
                        index, "skipped",
                        message="stop condition reached before launch",
                    )
                    if on_settle is not None:
                        on_settle(outcomes[index], len(running))
                    continue
                launch(index)
            settled_any = False
            for index in list(running):
                proc, conn, started = running[index]
                elapsed = time.monotonic() - started
                # Liveness first: a worker may send its result and exit
                # between the two calls, but one already dead before a poll
                # that finds nothing really sent nothing.
                alive = proc.is_alive()
                if conn.poll():
                    try:
                        status, payload = conn.recv()
                    except (EOFError, OSError):
                        # the child closed its end without a result — it died
                        proc.join(timeout=5.0)
                        status, payload = "crash", (
                            f"worker exited with code {proc.exitcode} "
                            "before reporting a result"
                        )
                    if status == "ok":
                        outcome = TaskOutcome(
                            index, "ok", result=payload, duration_s=elapsed
                        )
                    else:
                        outcome = TaskOutcome(
                            index,
                            "error" if status == "error" else "crash",
                            message=str(payload), duration_s=elapsed,
                        )
                    settle(index, outcome)
                    settled_any = True
                elif not alive:
                    settle(index, TaskOutcome(
                        index, "crash",
                        message=f"worker exited with code {proc.exitcode} "
                                "before reporting a result",
                        duration_s=elapsed,
                    ))
                    settled_any = True
                elif timeout_s is not None and elapsed > timeout_s:
                    proc.terminate()
                    settle(index, TaskOutcome(
                        index, "timeout",
                        message=f"exceeded per-task timeout of {timeout_s} s",
                        duration_s=elapsed,
                    ))
                    settled_any = True
            if not settled_any and running:
                time.sleep(poll_interval_s)
    finally:
        for proc, conn, _ in running.values():  # interrupt: leave no orphans
            proc.terminate()
            conn.close()
        for proc, _, _ in running.values():
            proc.join()

    assert all(o is not None for o in outcomes)
    return outcomes  # type: ignore[return-value]


@dataclass(frozen=True)
class ProgressEvent:
    """Snapshot handed to the progress callback after every settled run."""

    done: int
    total: int
    executed: int
    cached: int
    failed: int
    eta_s: Optional[float]
    outcome: RunOutcome


def print_progress(event: ProgressEvent) -> None:
    """Default CLI progress line: counts, the run that settled, and ETA."""
    o = event.outcome
    if isinstance(o, RunSuccess):
        status = "cached " if o.cached else "ran    "
    else:
        status = f"FAILED({o.kind}) "
    eta = f"  eta {event.eta_s:.0f}s" if event.eta_s is not None else ""
    print(
        f"[{event.done}/{event.total}] {status}"
        f"{o.request.workload.name} / {o.request.policy_name}{eta}",
        flush=True,
    )


class _Grid:
    """Mutable bookkeeping for one :func:`run_grid` invocation."""

    def __init__(self, total: int, progress) -> None:
        self.total = total
        self.progress = progress
        self.outcomes: list[Optional[RunOutcome]] = [None] * total
        self.executed = 0
        self.cached = 0
        self.failed = 0
        self.exec_seconds = 0.0

    @property
    def done(self) -> int:
        return self.executed + self.cached + self.failed

    def settle(self, index: int, outcome: RunOutcome, in_flight: int = 0) -> None:
        self.outcomes[index] = outcome
        if not outcome.ok:
            self.failed += 1
        elif outcome.cached:
            self.cached += 1
        else:
            self.executed += 1
            self.exec_seconds += outcome.duration_s
        if self.progress is not None:
            executed_or_failed = self.executed + self.failed
            eta = None
            remaining = self.total - self.done
            if executed_or_failed and remaining:
                per_run = self.exec_seconds / max(self.executed, 1)
                eta = per_run * remaining / max(in_flight, 1)
            self.progress(
                ProgressEvent(
                    done=self.done,
                    total=self.total,
                    executed=self.executed,
                    cached=self.cached,
                    failed=self.failed,
                    eta_s=eta,
                    outcome=outcome,
                )
            )


def run_grid(
    requests: Sequence[RunRequest],
    jobs: Optional[int] = None,
    cache: Union[ResultCache, str, Path, None] = None,
    timeout_s: Optional[float] = None,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    poll_interval_s: float = 0.01,
) -> list[RunOutcome]:
    """Execute a grid of runs; returns one outcome per request, in order.

    Args:
        jobs: worker processes (``None`` → ``os.cpu_count()``).  ``jobs=1``
            runs everything serially in-process — numerically identical to
            the plain runner, and the path the golden traces pin.
        cache: a :class:`ResultCache` or directory path; ``None`` disables
            caching.  Hits skip the simulation entirely; every fresh result
            is persisted the moment it completes, so an interrupted grid
            resumes where it stopped.
        timeout_s: per-run wall-clock budget (parallel mode only — a serial
            run cannot be preempted from within its own process).
        progress: callback fired after every settled run (see
            :class:`ProgressEvent`; :func:`print_progress` is a ready-made
            console reporter).
    """
    requests = list(requests)
    cache = _as_cache(cache)
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")

    grid = _Grid(len(requests), progress)
    keys = [run_key(r) for r in requests]

    # Resolve cache hits up front — they cost one file read each and never
    # occupy a worker slot.
    pending: list[int] = []
    for i, (request, key) in enumerate(zip(requests, keys)):
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            grid.settle(i, RunSuccess(request, key, hit, cached=True))
        else:
            pending.append(i)

    if jobs == 1:
        for i in pending:
            _run_serial(grid, requests[i], keys[i], i, cache)
    else:
        _run_fleet(grid, requests, keys, pending, jobs, cache, timeout_s,
                   poll_interval_s)

    assert all(o is not None for o in grid.outcomes)
    return grid.outcomes  # type: ignore[return-value]


def _run_serial(grid: _Grid, request: RunRequest, key: str, index: int,
                cache: Optional[ResultCache]) -> None:
    t0 = time.monotonic()
    try:
        report = _execute(request)
    except Exception as exc:  # noqa: BLE001
        grid.settle(index, RunFailure(
            request, key, kind="error",
            message=f"{type(exc).__name__}: {exc}",
            duration_s=time.monotonic() - t0,
        ))
        return
    if cache is not None:
        cache.put(key, report, request)
    grid.settle(index, RunSuccess(
        request, key, report, cached=False,
        duration_s=time.monotonic() - t0,
    ))


def _run_fleet(grid: _Grid, requests, keys, pending: list[int], jobs: int,
               cache: Optional[ResultCache], timeout_s: Optional[float],
               poll_interval_s: float) -> None:
    """Fan the cache-missed grid cells out over :func:`fan_out` workers."""

    def on_settle(task: TaskOutcome, in_flight: int) -> None:
        index = pending[task.index]
        request, key = requests[index], keys[index]
        if task.ok:
            report = report_from_dict(task.result)
            if cache is not None:
                cache.put(key, report, request)
            outcome: RunOutcome = RunSuccess(
                request, key, report, cached=False, duration_s=task.duration_s
            )
        else:
            outcome = RunFailure(
                request, key, kind=task.status,
                message=task.message, duration_s=task.duration_s,
            )
        grid.settle(index, outcome, in_flight=in_flight)

    fan_out(
        _grid_worker,
        [requests[i] for i in pending],
        jobs=jobs,
        timeout_s=timeout_s,
        poll_interval_s=poll_interval_s,
        on_settle=on_settle,
    )
