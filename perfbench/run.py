"""The repository benchmark: one command per workload, every metric.

    python3 perfbench/run.py --workload paper_grid --seed 0 --seconds 40 --trace 0

Workloads: ``paper_grid``, ``trace_model``, ``admit``, ``admit_durable``
(see ``perfbench/README.md``; ``BENCHMARK.json`` gates all but ``admit``).
The run pins itself to one CPU.  With ``--trace 0`` the run measures the
end-to-end metrics with no tracing; with ``--trace 1`` it installs span
wrappers around each layer's public functions and reports the per-layer
metrics instead.  Either way it checks the program's outputs and prints,
as its last line, one JSON object::

    {"correct": true, "attempted": 24, "failed": 0, "metrics": {...}}

The exit code is 0 when every output check passed, 1 when one failed and
2 when the program source is not there to run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    BENCH_DIR,
    OUT_DIR,
    Result,
    digest,
    ensure_program,
    pin_to_one_cpu,
)

WORKLOADS = ("paper_grid", "trace_model", "admit", "admit_durable")
BATCH = ("paper_grid", "trace_model")

#: end-to-end metrics, reported by every workload with tracing off
E2E = ("setup_s", "norm_wall_s", "peak_rss_mb")

#: per-layer metrics, reported by every workload with tracing on; a
#: layer the workload bypasses reads 0
PER_LAYER = {
    "sim.events": "count", "sim.self_s": "s", "sim.us_per_event": "us",
    "contention.calls": "count", "contention.self_s": "s",
    "rda.calls": "count", "rda.self_s": "s", "rda.deny_ratio": "ratio",
    "perf.self_s": "s",
    "experiments.cells": "count", "experiments.cell_max_s": "s",
    "cache.accesses": "count", "cache.self_s": "s",
    "cache.ns_per_access": "ns", "cache.hit_ratio": "ratio",
    "tracegen.addresses": "count", "tracegen.self_s": "s",
    "profiler.windows": "count", "profiler.self_s": "s",
    "codec.frames": "count", "codec.self_s": "s", "codec.us_per_frame": "us",
    "admission.calls": "count", "admission.self_s": "s",
    "admission.park_ratio": "ratio", "admission.wait_ms_p99": "ms",
    "server.cpu_us_per_period": "us", "server.retry_after": "count",
    "server.park_timeouts": "count",
    "journal.appends": "count", "journal.self_s": "s",
    "journal.syncs": "count", "journal.sync_s": "s",
    "journal.compactions": "count",
    "placer.placements": "count", "placer.self_s": "s",
    "cluster.redirects": "count", "cluster.redirect_p99_ms": "ms",
    "predict.observes": "count", "predict.self_s": "s",
    "predict.predicted_ratio": "ratio", "predict.resizes": "count",
    "client.cpu_us_per_period": "us", "client.reconnects": "count",
    "driver.late_p99_ms": "ms",
}

DEFAULT_REFERENCE = os.path.join(BENCH_DIR, "reference.json")


def _run(args) -> Result:
    if args.workload in BATCH:
        import batch
        from tracing import Tracer

        tracer = Tracer() if args.trace else None
        run = (batch.run_paper_grid if args.workload == "paper_grid"
               else batch.run_trace_model)
        result = run(args.seed, args.seconds, tracer)
        if tracer is not None:
            layers, bases = batch.batch_layers(tracer)
            result.layers.update(layers)
            result.bases.update(bases)
            path = os.path.join(OUT_DIR, "spans",
                                f"{args.workload}-seed{args.seed}.json")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tracer.dump(path)
            result.dumps["driver"] = path
        _check_digest(args, result)
        return result
    import service

    return service.run_service(args.workload, args.seed, args.seconds,
                               bool(args.trace))


def _check_digest(args, result: Result) -> None:
    """Batch outputs: reference digest (reference seed) and run-to-run."""
    if not result.outputs:
        return
    value = digest(result.outputs)
    result.notes.append(f"output digest {value}")
    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)
    if args.seed == reference["seed"]:
        expected = reference["digests"].get(args.workload)
        result.check("output digest equals the committed reference",
                     value == expected, f"got {value}, reference {expected}")
    # the same seed must give the same outputs on every run
    memo = os.path.join(OUT_DIR, "digests", f"{args.workload}-{args.seed}")
    if os.path.exists(memo):
        with open(memo, encoding="utf-8") as fh:
            earlier = fh.read().strip()
        result.check("output digest equals earlier runs of this seed",
                     value == earlier, f"got {value}, earlier {earlier}")
    elif result.correct:
        os.makedirs(os.path.dirname(memo), exist_ok=True)
        with open(memo, "w", encoding="utf-8") as fh:
            fh.write(value + "\n")


def _print_report(args, result: Result) -> None:
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for note in result.notes:
        print(f"#   {note}")
    rows = result.layers.items() if args.trace else (
        (name, (v, u)) for name, (v, u, _) in result.e2e.items())
    counts = {name: n for name, (_, _, n) in result.e2e.items()}
    for name, (value, unit) in rows:
        n = "" if args.trace else f"  (n={counts[name]})"
        print(f"  {name:<28} {value:>14.6g} {unit}{n}")
    for name, (value, unit, n) in result.info.items():
        print(f"  {name:<28} {value:>14.6g} {unit}  (n={n}, not gated)")
    for name, passed, detail in result.checks:
        mark = "ok  " if passed else "FAIL"
        print(f"  [{mark}] {name}" + (f": {detail}" if detail else ""))


def _save(args, result: Result, metrics) -> None:
    """Keep the run's record for ``report.py`` (overhead, layer tables)."""
    path = os.path.join(
        OUT_DIR, "results",
        f"{args.workload}-trace{args.trace}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": result.correct,
        "attempted": result.attempted, "failed": result.failed,
        "e2e": {k: {"value": v, "unit": u, "n": n}
                for k, (v, u, n) in result.e2e.items()},
        "info": {k: {"value": v, "unit": u, "n": n}
                 for k, (v, u, n) in result.info.items()},
        "metrics": metrics, "bases": result.bases, "dumps": result.dumps,
        "checks": [list(c) for c in result.checks], "notes": result.notes,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=DEFAULT_REFERENCE,
                        help="digest reference file (default: the committed one)")
    args = parser.parse_args(argv)
    ensure_program()
    pin_to_one_cpu()

    result = _run(args)
    if args.trace:
        layers = {name: (0, unit) for name, unit in PER_LAYER.items()}
        layers.update(result.layers)
        result.layers = layers
        metrics = {k: {"value": v, "unit": PER_LAYER[k]}
                   for k, (v, _) in layers.items() if k in PER_LAYER}
    else:
        missing = [k for k in E2E if k not in result.e2e]
        result.check("every end-to-end metric measured", not missing,
                     f"missing {missing}" if missing else "")
        metrics = {k: {"value": result.e2e[k][0], "unit": result.e2e[k][1]}
                   for k in E2E if k in result.e2e}
    if result.attempted < 1:
        result.check("at least one operation attempted", False)
    _print_report(args, result)
    _save(args, result, metrics)
    print(json.dumps({
        "correct": result.correct,
        "attempted": max(1, int(result.attempted)),
        "failed": int(result.failed),
        "metrics": metrics,
    }), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
