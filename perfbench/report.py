"""Per-layer report of traced runs, with the tracing overhead.

    python3 perfbench/report.py [--workload NAME ...]

Reads the records ``run.py`` keeps under ``perfbench/out/results`` and the
span dumps under ``perfbench/out/spans``.  For every workload with a
traced run it prints one row per layer: entries into the layer, self
time, time work waited on it, failures (calls that raised), and each
ratio with its base.  It then prints the tracing overhead: the traced
minus the untraced median of every end-to-end metric, over the seeds run
in each mode, and the run-to-run spread of each end-to-end metric.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Any, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import OUT_DIR  # noqa: E402
from stats import spread  # noqa: E402
from tracing import load_dump, merge_layers  # noqa: E402

#: layer -> (count metric, self-time metric, wait metric, ratio metrics)
LAYERS = (
    ("sim", "sim.events", "sim.self_s", None, ("sim.us_per_event",)),
    ("contention", "contention.calls", "contention.self_s", None, ()),
    ("rda", "rda.calls", "rda.self_s", None, ("rda.deny_ratio",)),
    ("perf", None, "perf.self_s", None, ()),
    ("experiments", "experiments.cells", None, None,
     ("experiments.cell_max_s",)),
    ("cache", "cache.accesses", "cache.self_s", None,
     ("cache.ns_per_access", "cache.hit_ratio")),
    ("tracegen", "tracegen.addresses", "tracegen.self_s", None, ()),
    ("profiler", "profiler.windows", "profiler.self_s", None, ()),
    ("codec", "codec.frames", "codec.self_s", None, ("codec.us_per_frame",)),
    ("admission", "admission.calls", "admission.self_s",
     "admission.wait_ms_p99", ("admission.park_ratio",)),
    ("server", None, None, None,
     ("server.cpu_us_per_period", "server.retry_after",
      "server.park_timeouts")),
    ("journal", "journal.appends", "journal.self_s", "journal.sync_s",
     ("journal.syncs", "journal.compactions")),
    ("placer", "placer.placements", "placer.self_s", None, ()),
    ("cluster", "cluster.redirects", None, "cluster.redirect_p99_ms", ()),
    ("predict", "predict.observes", "predict.self_s", None,
     ("predict.predicted_ratio", "predict.resizes")),
    ("client", "client.reconnects", None, "driver.late_p99_ms",
     ("client.cpu_us_per_period",)),
)


def _records(workloads: List[str]) -> Dict[str, Dict[int, List[Dict[str, Any]]]]:
    """workload -> trace mode -> records, in seed order."""
    out: Dict[str, Dict[int, List[Dict[str, Any]]]] = {}
    for path in sorted(glob.glob(os.path.join(OUT_DIR, "results", "*.json"))):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if workloads and doc["workload"] not in workloads:
            continue
        out.setdefault(doc["workload"], {}).setdefault(doc["trace"], []).append(doc)
    return out


def _fmt(metric: Dict[str, Any]) -> str:
    return f"{metric['value']:.4g} {metric['unit']}"


def layer_table(doc: Dict[str, Any]) -> List[str]:
    """Rows of the per-layer table for one traced record."""
    metrics = doc["metrics"]
    bases = doc.get("bases", {})
    dumps = [load_dump(p) for p in doc.get("dumps", {}).values()
             if os.path.exists(p)]
    failures = merge_layers(*dumps)
    lines = [f"  {'layer':<12}{'count':>14}{'self':>12}{'wait':>14}"
             f"{'failed':>8}  ratios (base)"]
    for layer, count, self_s, wait, ratios in LAYERS:
        cells = []
        for name in (count, self_s, wait):
            cells.append(_fmt(metrics[name]) if name else "-")
        parts = []
        for name in ratios:
            text = f"{name.split('.', 1)[1]}={_fmt(metrics[name])}"
            if name in bases:
                what, n = bases[name]
                text += f" (of {n:g} {what})"
            parts.append(text)
        failed = failures.get(layer, {}).get("failures", 0)
        lines.append(f"  {layer:<12}{cells[0]:>14}{cells[1]:>12}"
                     f"{cells[2]:>14}{failed:>8}  {'; '.join(parts)}")
    return lines


def overhead(traced: List[Dict[str, Any]],
             untraced: List[Dict[str, Any]]) -> List[str]:
    """Traced minus untraced medians of every end-to-end metric."""
    lines = []
    for name in traced[0].get("e2e", {}):
        t = [d["e2e"][name]["value"] for d in traced if name in d.get("e2e", {})]
        u = [d["e2e"][name]["value"] for d in untraced
             if name in d.get("e2e", {})]
        if not t or not u:
            continue
        tm, um = statistics.median(t), statistics.median(u)
        share = f" ({(tm - um) / um:+.1%})" if um else ""
        unit = traced[0]["e2e"][name]["unit"]
        lines.append(f"  {name:<14} traced {tm:.4g} - untraced {um:.4g} = "
                     f"{tm - um:+.4g} {unit}{share}  "
                     f"[n={len(t)} traced, {len(u)} untraced runs]")
    return lines


def steadiness(untraced: List[Dict[str, Any]]) -> List[str]:
    """Median, quartiles and spread of each metric over untraced runs."""
    lines = []
    for name in untraced[0].get("metrics", {}):
        values = [d["metrics"][name]["value"] for d in untraced
                  if name in d.get("metrics", {})]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        unit = untraced[0]["metrics"][name]["unit"]
        lines.append(f"  {name:<14} median {med:.4g} {unit}  quartiles "
                     f"{q1:.4g}..{q3:.4g}  spread {spread(values):.3f}  "
                     f"[n={len(values)} runs]")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[])
    args = parser.parse_args(argv)
    records = _records(args.workload)
    if not records:
        print(f"no run records under {OUT_DIR}/results; run perfbench/run.py "
              "first", file=sys.stderr)
        return 1
    for workload, modes in sorted(records.items()):
        traced, untraced = modes.get(1, []), modes.get(0, [])
        print(f"== {workload}: {len(traced)} traced, {len(untraced)} untraced "
              "run record(s)")
        if len(untraced) >= 2:
            print("end-to-end over untraced runs (spread = IQR / median):")
            print("\n".join(steadiness(untraced)))
        if traced:
            print(f"per-layer, traced run seed={traced[-1]['seed']}:")
            print("\n".join(layer_table(traced[-1])))
            if untraced:
                print("tracing overhead (median over seeds):")
                print("\n".join(overhead(traced, untraced)))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
