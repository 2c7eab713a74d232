"""Span tracing installed from outside the program.

The traced run wraps the public functions of each layer (the table in
``perfbench/README.md``) with :class:`Tracer` wrappers.  Nothing in
``src/`` changes: the wrappers replace class and module attributes at run
time, in the benchmark process for the batch workloads and, through
``serve_traced.py``, in the admission server process.

Each span records its name, start, end, parent span and request id.  A
layer's self time is a span's duration minus the time its child spans
cover.  Aggregates (count, total, self time, failures) are kept for every
span; the raw spans are kept in memory up to a cap and written out once,
at exit.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import importlib
import json
import time
from typing import Any, Callable, Dict, List, Tuple

__all__ = [
    "BATCH_TARGETS",
    "SERVER_TARGETS",
    "Tracer",
    "load_dump",
    "merge_layers",
    "name_stat",
]

#: (module, attribute path, layer, starts a new request)
Target = Tuple[str, str, str, bool]

BATCH_TARGETS: Tuple[Target, ...] = (
    ("repro.experiments.parallel", "_execute", "experiments", True),
    ("repro.sim.kernel", "Kernel.run", "sim", False),
    ("repro.mem.contention", "SharedLlcModel.resolve", "contention", False),
    ("repro.mem.contention", "SharedLlcModel.resolve_grouped", "contention", False),
    ("repro.core.rda", "RdaScheduler.on_pp_begin", "rda", False),
    ("repro.core.rda", "RdaScheduler.on_pp_end", "rda", False),
    ("repro.core.rda", "RdaScheduler.on_thread_exit", "rda", False),
    ("repro.perf.stat", "PerfStat.start", "perf", False),
    ("repro.perf.stat", "PerfStat.stop", "perf", False),
    ("repro.mem.cache", "Cache.access", "cache", False),
    ("repro.mem.cache", "Cache.access_trace", "cache", False),
    ("repro.mem.hierarchy", "CacheHierarchy.access", "cache", False),
    ("repro.mem.hierarchy", "CacheHierarchy.access_trace", "cache", False),
    ("repro.mem.hierarchy", "CacheHierarchy.interleave", "cache", False),
    ("repro.workloads.tracegen", "water_pp1_trace", "tracegen", True),
    ("repro.workloads.tracegen", "water_pp2_trace", "tracegen", True),
    ("repro.workloads.tracegen", "ocean_pp1_trace", "tracegen", True),
    ("repro.workloads.tracegen", "ocean_pp2_trace", "tracegen", True),
    ("repro.profiler.sampling", "sample_windows", "profiler", False),
    ("repro.profiler.regression", "fit_log_regression", "profiler", False),
)

SERVER_TARGETS: Tuple[Target, ...] = (
    ("repro.serve.protocol", "decode_any_frame", "codec", True),
    ("repro.serve.protocol", "decode_frame", "codec", True),
    ("repro.serve.protocol", "parse_request", "codec", False),
    ("repro.serve.protocol", "encode_frame", "codec", False),
    ("repro.serve.protocol", "encode_binary_frame", "codec", False),
    ("repro.core.api", "ProgressPeriodApi.pp_begin", "admission", False),
    ("repro.core.api", "ProgressPeriodApi.pp_end", "admission", False),
    ("repro.core.api", "ProgressPeriodApi.pp_cancel", "admission", False),
    ("repro.core.waitlist", "Waitlist.drain_admissible", "admission", False),
    ("repro.core.progress_monitor", "ProgressMonitor.resize", "admission", False),
    ("repro.serve.journal", "AdmissionJournal.record_admit", "journal", False),
    ("repro.serve.journal", "AdmissionJournal.record_close", "journal", False),
    ("repro.serve.journal", "AdmissionJournal.record_resize", "journal", False),
    ("repro.serve.journal", "AdmissionJournal.record_obs", "journal", False),
    ("repro.serve.journal", "AdmissionJournal.sync", "journal", False),
    ("repro.serve.journal", "AdmissionJournal._rewrite_snapshot", "journal", False),
    ("repro.serve.placer", "DemandAwarePlacer.place", "placer", False),
    ("repro.serve.placer", "DemandAwarePlacer.release", "placer", False),
    ("repro.serve.placer", "DemandAwarePlacer.observe", "placer", False),
    ("repro.predict.estimator", "OnlineWssEstimator.observe", "predict", False),
    ("repro.predict.estimator", "OnlineWssEstimator.predict", "predict", False),
    ("repro.predict.detector", "MispredictDetector.classify", "predict", False),
    ("repro.predict.controller", "ElasticController.update", "predict", False),
)


class _Agg:
    """Counters for one span name."""

    __slots__ = ("layer", "calls", "entries", "total_s", "self_s", "failures")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0  # every call
        self.entries = 0  # calls entered from outside the layer
        self.total_s = 0.0
        self.self_s = 0.0
        self.failures = 0


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self, max_spans: int = 100_000) -> None:
        self.max_spans = max_spans
        self.aggs: Dict[str, _Agg] = {}
        #: (span id, parent id, request id, name, start s, end s)
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.dropped = 0
        self.results: Dict[str, float] = {}
        self._stack: List[list] = []  # [span id, layer, child seconds]
        self._next_span = 1
        self._next_request = 1
        self._request = contextvars.ContextVar("perfbench_request", default=0)
        self.epoch = time.perf_counter()

    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        new_request: bool = False,
    ) -> Callable:
        """A traced version of ``fn`` recording one span per call."""
        agg = self.aggs.setdefault(name, _Agg(layer))
        stack = self._stack
        spans = self.spans
        request = self._request
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            outer = parent is None or parent[1] != layer
            if new_request and outer:
                request.set(self._next_request)
                self._next_request += 1
            span_id = self._next_span
            self._next_span += 1
            frame = [span_id, layer, 0.0]
            stack.append(frame)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                agg.calls += 1
                if outer:
                    agg.entries += 1
                agg.total_s += duration
                agg.self_s += duration - frame[2]
                if failed:
                    agg.failures += 1
                if len(spans) < self.max_spans:
                    spans.append((
                        span_id, parent[0] if parent else 0, request.get(),
                        name, start - self.epoch, end - self.epoch,
                    ))
                else:
                    self.dropped += 1
            return result

        return traced

    def install(self, targets) -> None:
        """Replace every target attribute with its traced wrapper."""
        for module_name, path, layer, new_request in targets:
            owner: Any = importlib.import_module(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            # a class's own __dict__ entry, so the wrapper binds like a method
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            setattr(owner, attr, self.wrap(original, path, layer, new_request))

    # ------------------------------------------------------------------
    def aggregates(self) -> Dict[str, Dict[str, Any]]:
        """Per span name: layer, calls, entries, total, self, failures."""
        return {
            name: {
                "layer": a.layer, "calls": a.calls, "entries": a.entries,
                "total_s": a.total_s, "self_s": a.self_s,
                "failures": a.failures,
            }
            for name, a in sorted(self.aggs.items())
        }

    def dump(self, path: str) -> None:
        """Write aggregates and the retained spans as one JSON document."""
        doc = {
            "aggregates": self.aggregates(),
            "spans_dropped": self.dropped,
            "results": self.results,
            "spans": [
                {"id": s[0], "parent": s[1], "request": s[2], "name": s[3],
                 "start": round(s[4], 9), "end": round(s[5], 9)}
                for s in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def load_dump(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def merge_layers(*dumps: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Per-layer totals over several dumps' aggregates; absent layers are 0.

    ``calls`` counts entries into the layer from outside it.
    """
    table: Dict[str, Dict[str, float]] = collections.defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "failures": 0}
    )
    for doc in dumps:
        for agg in doc.get("aggregates", {}).values():
            row = table[agg["layer"]]
            row["calls"] += agg["entries"]
            row["self_s"] += agg["self_s"]
            row["failures"] += agg["failures"]
    return table


def name_stat(doc: Dict[str, Any], name: str, key: str = "entries") -> float:
    """One aggregate field of one span name (0 when it never ran)."""
    agg = doc.get("aggregates", {}).get(name)
    return 0 if agg is None else agg[key]
