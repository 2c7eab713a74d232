"""``repro bench`` — the repository's performance benchmark harness.

One pinned, seeded workload per area (simulator, admission service,
cluster, fleet, overload control, demand prediction, cache simulator,
profiler)
reduced to flat JSON records with a stable schema; see
``docs/BENCHMARKS.md`` and :mod:`repro.bench.schema`.
"""

from .compare import compare_records, format_problems
from .runner import AREA_NAMES, BENCH_FILES, BenchOptions, run_bench
from .schema import (
    RECORD_FIELDS, BenchError, BenchRecord, config_digest, load_records,
    write_records,
)

__all__ = [
    "AREA_NAMES",
    "BENCH_FILES",
    "BenchError",
    "BenchOptions",
    "BenchRecord",
    "RECORD_FIELDS",
    "compare_records",
    "config_digest",
    "format_problems",
    "load_records",
    "run_bench",
    "write_records",
]
