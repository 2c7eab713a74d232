"""Batch workloads: the figures 7-10 grid and the trace-driven path.

``paper_grid`` runs the eight Table 2 workloads under the three policies
through ``run_grid(jobs=1, cache=None)`` with seeded arrival offsets.
``trace_model`` pushes co-running cyclic loops through ``Cache`` and a
2-core ``CacheHierarchy``, then runs the figure-12 profiling chain
(``tracegen`` -> ``sample_windows`` -> ``fit_log_regression``).

Run as a script with ``--probe <workload>`` it is the set-up probe: it
builds the workload's inputs, performs the first simulated or traced
access and prints the wall-clock time at that moment.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import summarize  # noqa: E402
from common import (  # noqa: E402
    VEC_REF_S,
    HostSpeed,
    Result,
    digest,
    ensure_program,
    peak_rss_mb,
    round_sig,
    setup_probes,
    vector_round,
)

#: set-up probes per run (their median is setup_s)
SETUP_PROBES = 5


# ----------------------------------------------------------------------
# paper_grid
# ----------------------------------------------------------------------
def grid_requests(seed: int):
    """24 cells: Table 2 workloads x {Default, Strict, Compromise}."""
    import numpy as np
    from repro.experiments.parallel import RunRequest
    from repro.experiments.runner import POLICIES
    from repro.workloads.suite import WORKLOAD_NAMES, workload_by_name

    requests = []
    for w, name in enumerate(WORKLOAD_NAMES):
        for p, policy in enumerate(POLICIES.values()):
            workload = workload_by_name(name)
            # the same jitter model as run_repeated: uniform spawn times
            # within a 2 ms window, one stream per cell
            rng = np.random.default_rng([seed, w, p])
            offsets = rng.uniform(0.0, 2e-3, workload.n_processes)
            requests.append(RunRequest(
                workload=workload,
                policy=policy,
                arrival_offsets=tuple(float(x) for x in offsets),
                seed=seed,
                tag=f"{w}.{p}",
            ))
    return requests


class _EventCounter:
    """Counts simulated events per ``Kernel.run`` call, in call order."""

    def __init__(self) -> None:
        from repro.sim.kernel import Kernel

        self.events: List[int] = []
        original = Kernel.__dict__["run"]
        counter = self

        def run(kernel, *args, **kwargs):
            try:
                return original(kernel, *args, **kwargs)
            finally:
                counter.events.append(kernel.engine.events_processed)

        Kernel.run = run


def _item_latency(result: Result, seconds: List[float]) -> None:
    """Host time per batch item (grid cell, trace item), not gated."""
    ms = [s * 1e3 for s in seconds]
    result.notes.append(f"item host time: {summarize(ms).describe()}")


def run_paper_grid(seed: int, seconds: float, tracer=None) -> Result:
    """One pass of the whole grid: a fixed batch ``seconds`` does not cut."""
    from repro.experiments.parallel import run_grid

    result = Result()
    setup = setup_probes("paper_grid", seed, SETUP_PROBES)
    counter = _EventCounter()
    if tracer is not None:
        from tracing import BATCH_TARGETS
        tracer.install(BATCH_TARGETS)
    requests = grid_requests(seed)
    # a host-speed sample before the grid and after every cell
    speed = HostSpeed()
    outcomes = run_grid(requests, jobs=1, cache=None, progress=speed.mark)
    durations = [o.duration_s for o in outcomes]

    cells = []
    for request, outcome in zip(requests, outcomes):
        if not outcome.ok:
            result.failed += 1
            result.notes.append(f"cell failed: {outcome.describe()}")
            continue
        r = outcome.report
        cells.append([
            request.workload.name, request.policy_name,
            round_sig(r.gflops), round_sig(r.system_j), round_sig(r.dram_j),
            round_sig(r.wall_s),
        ])
    result.attempted = len(requests)
    if len(counter.events) == len(cells):
        for cell, events in zip(cells, counter.events):
            cell.append(events)
    result.check("all grid cells ran", result.failed == 0,
                 f"{result.failed} of {len(requests)} failed")
    result.check("one Kernel.run per cell", len(counter.events) == len(requests),
                 f"{len(counter.events)} runs for {len(requests)} cells")
    result.check("one host-speed sample per cell",
                 len(speed.samples) == len(requests) + 1,
                 f"{len(speed.samples)} samples for {len(requests)} cells")
    result.outputs = {"cells": cells}
    if not result.correct:
        return result

    result.e2e["setup_s"] = (statistics.median(setup), "s", len(setup))
    result.e2e["norm_wall_s"] = (sum(speed.normalise(durations)), "s",
                                 len(durations))
    result.info["wall_s"] = (sum(durations), "s", len(durations))
    result.info["cal_round_ms"] = speed.info()
    result.e2e["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    _item_latency(result, durations)
    events = sum(counter.events)
    result.notes.append(
        f"grid: {len(requests)} cells, {events} simulated events, "
        f"slowest cell {max(durations):.3f} s"
    )
    if tracer is not None:
        rda_begins = sum(o.report.pp_begin_calls for o in outcomes
                         if o.ok and o.request.policy is not None)
        rda_denials = sum(o.report.pp_denials for o in outcomes
                          if o.ok and o.request.policy is not None)
        tracer.results.update({
            "sim.events": events,
            "experiments.cells": len(outcomes),
            "experiments.cell_max_s": max(o.duration_s for o in outcomes),
            "rda.pp_begins": rda_begins,
            "rda.denials": rda_denials,
        })
    return result


# ----------------------------------------------------------------------
# trace_model
# ----------------------------------------------------------------------
#: W/C ratios of the co-running loops against the cache under test
WC_RATIOS = (0.5, 1.0, 1.5, 2.0, 3.0)
REPLACEMENTS = ("lru", "random")
LOOP_PASSES = 8
_LINE = 64

#: figure-12 subjects: (curve, tracegen function name, input sizes)
FIG12 = (
    ("Wnsq PP1", "water_pp1_trace", (8000, 15625, 32768, 64000)),
    ("Wnsq PP2", "water_pp2_trace", (8000, 15625, 32768, 64000)),
    ("Ocp PP1", "ocean_pp1_trace", (514, 1026, 2050, 4098)),
    ("Ocp PP2", "ocean_pp2_trace", (514, 1026, 2050, 4098)),
)
FIG12_ACCESSES = 2_000_000
FIG12_WINDOW = 1_000_000  # instructions: the paper's window


def _cyclic(base_line: int, lines: int, passes: int):
    import numpy as np

    loop = (base_line + np.arange(lines, dtype=np.int64)) * _LINE
    return np.tile(loop, passes)


def _interleave(a, b):
    """Round-robin two address streams; the longer one's tail follows."""
    import numpy as np

    n = min(a.size, b.size)
    mixed = np.empty(2 * n, dtype=np.int64)
    mixed[0::2], mixed[1::2] = a[:n], b[:n]
    return np.concatenate([mixed, a[n:], b[n:]])


def trace_inputs(seed: int) -> Dict[str, Any]:
    """The seeded loop shapes: split of each W between two loops, bases."""
    import numpy as np

    rng = np.random.default_rng([seed, 12])
    return {
        "splits": [float(x) for x in rng.uniform(0.35, 0.65, len(WC_RATIOS))],
        "bases": [int(x) for x in rng.integers(0, 1 << 20, 2 * len(WC_RATIOS) + 2)],
        "replacement_seed": int(rng.integers(0, 1 << 16)),
    }


def _cache_config():
    from repro.config import CacheConfig

    return CacheConfig("bench-L2", 64 * 1024, line_bytes=_LINE, associativity=8)


def _hierarchy_config():
    from dataclasses import replace

    from repro.config import CacheConfig, default_machine_config

    machine = default_machine_config()
    return replace(
        machine,
        l1d=CacheConfig("L1-Data", 4 * 1024, associativity=8),
        l2=CacheConfig("L2-Private", 16 * 1024, associativity=8),
        llc=CacheConfig("L3-Shared", 128 * 1024, associativity=16, shared=True),
    )


def trace_batch(inputs: Dict[str, Any],
                between: Callable[[], None]) -> Dict[str, Any]:
    """One pass of the trace-driven batch; returns every simulated output.

    ``between`` is called after each timed item, outside its time.
    """
    from repro.mem.cache import Cache
    from repro.mem.hierarchy import CacheHierarchy
    from repro.profiler import regression, sampling
    from repro.workloads import tracegen

    out: Dict[str, Any] = {"loops": [], "hierarchy": {}, "fig12": []}
    #: host seconds per item: each cache loop, the hierarchy pass, each curve
    times: List[float] = []
    clock = time.perf_counter
    config = _cache_config()
    cache_lines = config.capacity_bytes // _LINE
    accesses = hits = 0
    for replacement in REPLACEMENTS:
        for i, ratio in enumerate(WC_RATIOS):
            started = clock()
            lines = int(ratio * cache_lines)
            a_lines = max(1, int(lines * inputs["splits"][i]))
            stream = _interleave(
                _cyclic(inputs["bases"][2 * i], a_lines, LOOP_PASSES),
                _cyclic(inputs["bases"][2 * i + 1] + (1 << 21), lines - a_lines,
                        LOOP_PASSES),
            )
            cache = Cache(config, replacement=replacement,
                          seed=inputs["replacement_seed"])
            stats = cache.access_trace(stream)
            accesses += stats.accesses
            hits += stats.hits
            out["loops"].append([replacement, ratio, round_sig(stats.hit_rate)])
            times.append(clock() - started)
            between()

    # 2-core contention: each core's loop is 0.75 x LLC, alone then together
    started = clock()
    h_config = _hierarchy_config()
    llc_lines = h_config.llc.capacity_bytes // _LINE
    loops = [
        _cyclic(inputs["bases"][-2], int(0.75 * llc_lines), 3),
        _cyclic(inputs["bases"][-1] + (1 << 21), int(0.75 * llc_lines), 3),
    ]
    solo = CacheHierarchy(n_cores=1, config=h_config, seed=inputs["replacement_seed"])
    solo_stats = solo.access_trace(0, loops[0])
    pair = CacheHierarchy(n_cores=2, config=h_config, seed=inputs["replacement_seed"])
    pair_stats = pair.interleave(loops)
    out["hierarchy"] = {
        "solo_llc_miss": round_sig(solo_stats.llc_miss_ratio),
        "pair_llc_miss": [round_sig(s.llc_miss_ratio) for s in pair_stats],
    }
    times.append(clock() - started)
    between()
    for level in (solo.llc, *[c for core in pair.cores for c in (core.l1, core.l2)],
                  pair.llc, *[c for core in solo.cores for c in (core.l1, core.l2)]):
        accesses += level.stats.accesses
        hits += level.stats.hits

    # figure 12: profile the top two PPs at four input scales, fit, predict
    windows = addresses = 0
    for curve, fn_name, scales in FIG12:
        started = clock()
        measured = []
        for n in scales:
            trace = getattr(tracegen, fn_name)(n, n_accesses=FIG12_ACCESSES)
            addresses += len(trace)
            profile = sampling.sample_windows(trace, FIG12_WINDOW)
            windows += len(profile)
            measured.append(profile.mean_wss_bytes / 1e6)
        fit = regression.fit_log_regression(scales[:3], measured[:3])
        predicted = [float(fit.predict(n)) for n in scales]
        out["fig12"].append([
            curve, [round_sig(m) for m in measured],
            [round_sig(p) for p in predicted],
        ])
        times.append(clock() - started)
        between()
    out["_counts"] = {
        "accesses": accesses, "hits": hits,
        "addresses": addresses, "windows": windows,
    }
    out["_times"] = times
    return out


def _trace_sane(out: Dict[str, Any]) -> Tuple[bool, str]:
    """Physical sanity of the trace outputs, independent of the digest."""
    by = {(r, w): h for r, w, h in out["loops"]}
    if not all(0.0 <= h <= 1.0 for h in by.values()):
        return False, "hit rate outside [0, 1]"
    if not by[("lru", 0.5)] > by[("lru", 3.0)]:
        return False, "LRU hit rate does not fall as W/C grows"
    h = out["hierarchy"]
    if not min(h["pair_llc_miss"]) > h["solo_llc_miss"]:
        return False, "co-running loops did not raise the LLC miss ratio"
    for curve, measured, _ in out["fig12"]:
        if not measured[0] < measured[-1]:
            return False, f"{curve}: working set does not grow with input"
    return True, ""


def run_trace_model(seed: int, seconds: float, tracer=None) -> Result:
    """Trace passes until ``seconds`` runs out; times are per-pass medians."""
    result = Result()
    setup = setup_probes("trace_model", seed, SETUP_PROBES)
    if tracer is not None:
        from tracing import BATCH_TARGETS
        tracer.install(BATCH_TARGETS)
    inputs = trace_inputs(seed)
    # host-speed samples before the first item and after every item: the
    # cache items are interpreter-bound, the figure-12 items numpy-bound
    speed = HostSpeed()
    vspeed = HostSpeed(vector_round, VEC_REF_S)

    def mark() -> None:
        speed.mark()
        vspeed.mark()

    #: per pass: host seconds of each item
    passes: List[List[float]] = []
    digests: List[str] = []
    last: Optional[Dict[str, Any]] = None
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        result.attempted += 1
        try:
            out = trace_batch(inputs, mark)
        except Exception as exc:  # noqa: BLE001 — a failed pass is a result
            result.failed += 1
            result.notes.append(f"batch failed: {type(exc).__name__}: {exc}")
            break
        counts = out.pop("_counts")
        passes.append(out.pop("_times"))
        digests.append(digest(out))
        last = out
        now = time.perf_counter()
        if now + (now - started) > deadline:  # another pass would overrun
            break
    result.check("trace batch ran", last is not None and result.failed == 0)
    if last is None:
        return result
    result.check("digest identical across passes", len(set(digests)) == 1,
                 f"{len(set(digests))} distinct digests in {len(digests)} passes")
    sane, why = _trace_sane(last)
    result.check("trace outputs physically sane", sane, why)
    result.outputs = last
    item_times = [t for items in passes for t in items]
    k = len(passes[0])
    norm = [v if i % k >= k - len(FIG12) else p for i, (p, v) in enumerate(
        zip(speed.normalise(item_times), vspeed.normalise(item_times)))]
    result.e2e["setup_s"] = (statistics.median(setup), "s", len(setup))
    result.e2e["norm_wall_s"] = (
        statistics.median(sum(norm[i:i + k]) for i in range(0, len(norm), k)),
        "s", len(passes))
    result.info["wall_s"] = (statistics.median(map(sum, passes)), "s",
                             len(passes))
    result.info["cal_round_ms"] = speed.info()
    result.info["vector_round_ms"] = vspeed.info()
    result.e2e["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    _item_latency(result, item_times)
    result.notes.append(
        f"trace batch: {len(passes)} passes, {counts['accesses']} cache "
        f"accesses, {counts['addresses']} traced addresses per pass"
    )
    if tracer is not None:
        n = len(passes)
        tracer.results.update({
            "cache.hits": counts["hits"] * n,
            "cache.lookups": counts["accesses"] * n,
            "tracegen.addresses": counts["addresses"] * n,
            "profiler.windows": counts["windows"] * n,
        })
    return result


def batch_layers(tracer):
    """Per-layer metrics of a traced batch run, and each ratio's base."""
    from tracing import merge_layers, name_stat

    r = tracer.results
    doc = {"aggregates": tracer.aggregates()}
    layers = merge_layers(doc)

    events = r.get("sim.events", 0)
    # every lookup at every level, not only entries into the cache layer
    accesses = int(name_stat(doc, "Cache.access", "calls"))
    bases = {
        "sim.us_per_event": ("events", events),
        "rda.deny_ratio": ("pp_begin", r.get("rda.pp_begins", 0)),
        "cache.ns_per_access": ("Cache.access calls", accesses),
        "cache.hit_ratio": ("lookups", r.get("cache.lookups", 0)),
    }
    return {
        "sim.events": (events, "count"),
        "sim.self_s": (layers["sim"]["self_s"], "s"),
        "sim.us_per_event": (
            layers["sim"]["self_s"] / max(events, 1) * 1e6, "us"),
        "contention.calls": (layers["contention"]["calls"], "count"),
        "contention.self_s": (layers["contention"]["self_s"], "s"),
        "rda.calls": (layers["rda"]["calls"], "count"),
        "rda.self_s": (layers["rda"]["self_s"], "s"),
        "rda.deny_ratio": (
            r.get("rda.denials", 0) / max(r.get("rda.pp_begins", 0), 1), "ratio"),
        "perf.self_s": (layers["perf"]["self_s"], "s"),
        "experiments.cells": (r.get("experiments.cells", 0), "count"),
        "experiments.cell_max_s": (r.get("experiments.cell_max_s", 0.0), "s"),
        "cache.accesses": (accesses, "count"),
        "cache.self_s": (layers["cache"]["self_s"], "s"),
        "cache.ns_per_access": (
            layers["cache"]["self_s"] / max(accesses, 1) * 1e9, "ns"),
        "cache.hit_ratio": (
            r.get("cache.hits", 0) / max(r.get("cache.lookups", 0), 1), "ratio"),
        "tracegen.addresses": (r.get("tracegen.addresses", 0), "count"),
        "tracegen.self_s": (layers["tracegen"]["self_s"], "s"),
        "profiler.windows": (r.get("profiler.windows", 0), "count"),
        "profiler.self_s": (layers["profiler"]["self_s"], "s"),
    }, bases


# ----------------------------------------------------------------------
# set-up probe
# ----------------------------------------------------------------------
def _probe(workload: str, seed: int) -> float:
    """Build the inputs, make the first access; return the wall clock."""
    if workload == "paper_grid":
        from repro.core.rda import RdaScheduler
        from repro.config import default_machine_config
        from repro.errors import SimulationError
        from repro.sim.kernel import Kernel

        request = grid_requests(seed)[0]
        config = default_machine_config()
        scheduler = (
            RdaScheduler(policy=request.policy, config=config)
            if request.policy else None
        )
        kernel = Kernel(config=config, extension=scheduler)
        for spec, offset in zip(request.workload.processes,
                                request.arrival_offsets):
            kernel.spawn(spec, at=offset)
        try:
            kernel.engine.run(max_events=1)
        except SimulationError:
            pass  # the one-event budget, by design
    else:
        from repro.mem.cache import Cache

        inputs = trace_inputs(seed)
        cache = Cache(_cache_config(), replacement=REPLACEMENTS[0])
        cache.access(_cyclic(inputs["bases"][0], 1, 1)[0])
    return time.time()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", required=True,
                        choices=("paper_grid", "trace_model"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    ensure_program()
    print(repr(_probe(args.probe, args.seed)))
