"""Orchestrate one ``repro bench`` pass: run areas, write files, compare.

One benchmark pass produces one file per area in the output directory::

    BENCH_sim.json            kernel + engine events/sec
    BENCH_serve.json          admissions/sec and admission latency percentiles
    BENCH_cluster.json        admissions/sec through the sharded placer front-end
    BENCH_fleet.json          sims/sec through run_grid and its result cache
    BENCH_serve_overload.json shed throughput and bounded sojourn under storm
    BENCH_serve_predict.json  admission throughput with demand prediction on
    BENCH_mem.json            cache-simulator accesses/sec (one cache, a 2-core
                              hierarchy) and contention-model evals/sec
    BENCH_profiler.json       figure-12 window statistics windows/sec and
                              trace-generation addresses/sec

``--quick`` times each workload once (the sub-second serve and cluster
areas keep min-of-3 even in quick mode — their latency tails need it);
the full mode times the identical workload three times and keeps the best
rep, so both modes share config digests and stay mutually comparable.  When a baseline directory is given,
the comparison loads it *before* any output is written — comparing against
the committed baselines and then overwriting them in place (the CI flow)
is safe.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from . import areas
from .compare import compare_records, format_problems
from .schema import BenchError, BenchRecord, load_records, write_records

__all__ = ["AREA_NAMES", "BENCH_FILES", "BenchOptions", "run_bench"]

#: area name -> output file name (stable; documented in docs/BENCHMARKS.md)
BENCH_FILES: Dict[str, str] = {
    "sim": "BENCH_sim.json",
    "serve": "BENCH_serve.json",
    "cluster": "BENCH_cluster.json",
    "fleet": "BENCH_fleet.json",
    "serve_overload": "BENCH_serve_overload.json",
    "serve_predict": "BENCH_serve_predict.json",
    "mem": "BENCH_mem.json",
    "profiler": "BENCH_profiler.json",
}
AREA_NAMES = tuple(BENCH_FILES)

#: repetitions per timed workload (best-of-N); quick collapses to 1...
FULL_REPS = 3
#: ...except for the sub-second serve/cluster areas, whose latency tails
#: need min-of-N even in quick mode (three reps still finish in <1 s);
#: serve_overload and serve_predict run seconds-long reps, so quick keeps 2
QUICK_REPS = {"serve": 3, "cluster": 3, "serve_overload": 2,
              "serve_predict": 2}


@dataclass
class BenchOptions:
    """One ``repro bench`` invocation."""

    quick: bool = False
    seed: int = 1234
    out_dir: str = "."
    areas: Sequence[str] = field(default_factory=lambda: list(AREA_NAMES))
    cache_dir: Optional[str] = None
    jobs: Optional[int] = None
    compare_to: Optional[str] = None
    tolerance: float = 0.30


def _run_area(name: str, opts: BenchOptions) -> List[BenchRecord]:
    reps = QUICK_REPS.get(name, 1) if opts.quick else FULL_REPS
    if name == "sim":
        return areas.bench_sim(opts.seed, reps)
    if name == "serve":
        return areas.bench_serve(opts.seed, reps)
    if name == "cluster":
        return areas.bench_cluster(opts.seed, reps)
    if name == "fleet":
        return areas.bench_fleet(
            opts.seed, cache_dir=opts.cache_dir, jobs=opts.jobs
        )
    if name == "serve_overload":
        return areas.bench_serve_overload(opts.seed, reps)
    if name == "serve_predict":
        return areas.bench_serve_predict(opts.seed, reps)
    if name == "mem":
        return areas.bench_mem(opts.seed, reps)
    if name == "profiler":
        return areas.bench_profiler(opts.seed, reps)
    raise BenchError(f"unknown bench area {name!r}; choose from {AREA_NAMES}")


def run_bench(
    opts: BenchOptions, echo: Callable[[str], None] = print
) -> int:
    """Run the selected areas; returns a process exit code (0 = pass)."""
    selected = [a for a in AREA_NAMES if a in set(opts.areas)]
    unknown = set(opts.areas) - set(AREA_NAMES)
    if unknown:
        raise BenchError(
            f"unknown bench area(s) {sorted(unknown)}; choose from {AREA_NAMES}"
        )

    # load baselines first: the out dir may BE the baseline dir (CI)
    baseline: List[BenchRecord] = []
    if opts.compare_to is not None:
        for area in selected:
            path = os.path.join(opts.compare_to, BENCH_FILES[area])
            if not os.path.exists(path):
                raise BenchError(f"baseline {path} does not exist")
            baseline.extend(load_records(path))

    os.makedirs(opts.out_dir, exist_ok=True)
    current: List[BenchRecord] = []
    for area in selected:
        echo(f"bench: running area {area!r} "
             f"({'quick' if opts.quick else f'best of {FULL_REPS}'}, "
             f"seed {opts.seed})...")
        records = _run_area(area, opts)
        out_path = os.path.join(opts.out_dir, BENCH_FILES[area])
        write_records(out_path, records)
        current.extend(records)
        for r in records:
            echo(f"  {r.area}/{r.metric}: {r.value:g} {r.unit} "
                 f"(wall {r.wall_s:.3f}s, digest {r.config_digest})")
        echo(f"  -> {out_path}")

    if opts.compare_to is not None:
        problems = compare_records(baseline, current, opts.tolerance)
        echo(format_problems(problems))
        if problems:
            return 1
    return 0
