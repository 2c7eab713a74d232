"""The benchmark areas: simulator kernel, admission service, cluster, fleet,
cache simulator, profiler.

Each area runs a pinned, seeded workload and reduces it to a handful of
:class:`~repro.bench.schema.BenchRecord` rows.  Workloads are sized so a
``--quick`` pass finishes in a few seconds on a laptop while still hitting
the hot paths the records are meant to guard: the event-loop inner loop
and rate memoization (sim), frame codec + parking + the metrics registry
(serve), the placer front-end's redirect path (cluster), the
content-addressed result cache (fleet), the trace-driven cache
simulator plus the analytical contention model (mem), and the figure-12
trace generators plus window statistics (profiler).  Each timed rep of
the sim, mem and profiler areas runs for at least ~0.5 s, so one
scheduler hiccup cannot swing a record.

Repetitions time the *same* deterministic workload several times and keep
the best result (classic min-of-N to shed scheduler noise) — best wall
clock for the single-payload areas, best value *per metric* for the serve
and cluster areas, whose latency percentiles spike independently of wall
time.  Rep counts are deliberately excluded from the config digest so
quick and full runs of one configuration remain comparable.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import tempfile
import time
from dataclasses import replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..config import CacheConfig, CpuConfig, MachineConfig, default_machine_config
from ..core.policy import CompromisePolicy, StrictPolicy
from ..core.rda import RdaScheduler
# _canonical is the fleet's spec-canonicalizer; the bench digests reuse it
# so one hashing convention covers both subsystems.
from ..experiments.figures import OCEAN_INPUTS, WATER_INPUTS
from ..experiments.parallel import (
    ResultCache, RunRequest, RunSuccess, _canonical, run_grid, run_key,
)
from ..mem.cache import Cache
from ..mem.contention import LlcDemand, SharedLlcModel
from ..mem.hierarchy import CacheHierarchy
from ..profiler import sampling
from ..sim.engine import Engine
from ..sim.kernel import Kernel
from ..units import kib
from ..workloads import tracegen
from ..workloads.base import Phase, PpSpec, ProcessSpec, Workload
from ..workloads.suite import workload_by_name
from .schema import BenchRecord, config_digest

__all__ = [
    "bench_sim",
    "bench_serve",
    "bench_serve_overload",
    "bench_serve_predict",
    "bench_cluster",
    "bench_fleet",
    "bench_mem",
    "bench_profiler",
]


def _best_of(reps: int, fn: Callable[[], Tuple[float, object]]) -> Tuple[float, object]:
    """Run ``fn`` ``reps`` times; return (best wall_s, that rep's payload)."""
    best_wall: Optional[float] = None
    best_payload: object = None
    for _ in range(max(1, reps)):
        wall, payload = fn()
        if best_wall is None or wall < best_wall:
            best_wall, best_payload = wall, payload
    return best_wall, best_payload


def _merge_best(rep_records: List[List[BenchRecord]]) -> List[BenchRecord]:
    """Element-wise best across repetitions of the same record list.

    Picking the whole record set from the min-*wall* rep does not shed
    latency noise: one 2 ms scheduler stall inflates a p99 forty-fold
    while moving a 100 ms wall by 2%.  Classic min-of-N must apply per
    metric — max for throughputs, min for latencies; informational counts
    are deterministic across reps, so the first rep's value stands.
    """
    merged = list(rep_records[0])
    for records in rep_records[1:]:
        for i, (best, cur) in enumerate(zip(merged, records)):
            take = (
                (cur.higher_is_better and cur.value > best.value)
                or (cur.lower_is_better and cur.value < best.value)
            )
            if take:
                merged[i] = cur
    return merged


# ----------------------------------------------------------------------
# sim: raw engine throughput + full kernel events/sec
# ----------------------------------------------------------------------
_ENGINE_EVENTS = 160_000
#: fresh kernels per timed rep, each running the whole mix (one run alone
#: is ~1.5k events, well under the 0.5 s rep floor)
_KERNEL_RUNS = 16


def _bench_phase(
    name: str, instructions: int, wss_mb: float, declare_pp: bool = True
) -> Phase:
    wss = int(wss_mb * 1_000_000)
    return Phase(
        name=name, instructions=instructions, flops_per_instr=1.0,
        mem_refs_per_instr=0.4, llc_refs_per_memref=0.1,
        wss_bytes=wss, reuse=0.9,
        pp=PpSpec(demand_bytes=wss) if declare_pp else None,
    )


def _sim_machine() -> MachineConfig:
    return MachineConfig(
        cpu=CpuConfig(n_cores=2),
        llc=CacheConfig("L3-Shared", kib(2048), associativity=16, shared=True),
    )


def _sim_workload() -> Workload:
    """Oversubscribed pp + background mix: 12 processes on 2 cores.

    The background (non-pp) processes deepen the run queue so CFS slice
    preemption fires constantly — that is what exercises the engine heap
    and the kernel's rate-recompute path rather than idling on I/O.
    """
    return Workload(
        name="bench-mix",
        processes=[
            ProcessSpec(
                name="pp",
                program=[
                    _bench_phase("a", 30_000_000, 0.9),
                    _bench_phase("b", 20_000_000, 0.5),
                    _bench_phase("c", 15_000_000, 1.2),
                ] * 4,
            )
        ] * 4
        + [
            ProcessSpec(
                name="bg",
                program=[
                    _bench_phase("x", 60_000_000, 0.3, declare_pp=False),
                    _bench_phase("y", 40_000_000, 0.2, declare_pp=False),
                ] * 4,
            )
        ] * 8,
    )


def bench_sim(seed: int, reps: int) -> List[BenchRecord]:
    machine = _sim_machine()
    workload = _sim_workload()
    digest = config_digest({
        "area": "sim",
        "engine_events": _ENGINE_EVENTS,
        "kernel_runs": _KERNEL_RUNS,
        "machine": _canonical(machine),
        "workload": _canonical(workload),
        "seed": seed,
    })

    # raw Engine micro-bench: seeded delays, every 4th event cancelled to
    # exercise the tombstone/compaction path
    rng = random.Random(seed)
    delays = [rng.random() * 1e-3 for _ in range(_ENGINE_EVENTS)]

    def engine_rep() -> Tuple[float, object]:
        eng = Engine()

        def noop(_arg: float) -> None:
            pass

        t0 = time.perf_counter()
        cancels = []
        for i, delay in enumerate(delays):
            handle = eng.schedule(delay, noop, 0.0)
            if i % 4 == 0:
                cancels.append(handle)
        for handle in cancels:
            eng.cancel(handle)
        eng.run()
        return time.perf_counter() - t0, eng.events_processed

    def kernel_rep() -> Tuple[float, object]:
        wall = 0.0
        events = 0
        for _ in range(_KERNEL_RUNS):
            sched = RdaScheduler(policy=StrictPolicy(), config=machine)
            kernel = Kernel(config=machine, extension=sched)
            kernel.launch(workload)
            t0 = time.perf_counter()
            kernel.run(max_events=5_000_000)
            wall += time.perf_counter() - t0
            events += kernel.engine.events_processed
        return wall, events

    engine_wall, engine_events = _best_of(reps, engine_rep)
    kernel_wall, kernel_events = _best_of(reps, kernel_rep)

    def rec(metric: str, value: float, unit: str, wall: float) -> BenchRecord:
        return BenchRecord(
            area="sim", metric=metric, value=value, unit=unit,
            seed=seed, config_digest=digest, wall_s=round(wall, 6),
        )

    return [
        rec("engine_events_per_s", round(engine_events / engine_wall, 1),
            "events/s", engine_wall),
        rec("events_per_s", round(kernel_events / kernel_wall, 1),
            "events/s", kernel_wall),
        rec("events_total", float(kernel_events), "events", kernel_wall),
    ]


# ----------------------------------------------------------------------
# serve: admissions/sec + admission latency via the metrics registry
# ----------------------------------------------------------------------
# 400 sessions keep the p99 a real percentile (several samples above it)
# instead of a max-of-80 extreme value that jitters 4x on a noisy host
_SERVE_SESSIONS = 400
_SERVE_CLIENTS = 4
_SERVE_CAPACITY_MB = 8.0
_SERVE_DEMAND_MB = 6.3


def _serve_machine() -> MachineConfig:
    """Default machine with the managed LLC resized to the bench capacity."""
    machine = default_machine_config()
    quantum = machine.llc.line_bytes * machine.llc.associativity
    capacity = int(_SERVE_CAPACITY_MB * 1024 * 1024) // quantum * quantum
    return replace(machine, llc=replace(machine.llc, capacity_bytes=capacity))


def bench_serve(seed: int, reps: int) -> List[BenchRecord]:
    # imported lazily so `repro bench --areas sim` works even if the serve
    # stack is unavailable (it has no extra deps today, but keep it isolated)
    from ..serve.loadgen import LoadgenConfig, fig4_scripts, run_loadgen
    from ..serve.server import AdmissionServer, ServeConfig

    machine = _serve_machine()
    policy = StrictPolicy()
    scripts = fig4_scripts(
        n=_SERVE_CLIENTS, demand_mb=_SERVE_DEMAND_MB, hold_s=0.0
    )
    load_cfg = LoadgenConfig(
        mode="closed", clients=_SERVE_CLIENTS, sessions=_SERVE_SESSIONS,
        time_scale=1.0, seed=seed,
    )
    digest = config_digest({
        "area": "serve",
        "machine": _canonical(machine),
        "policy": _canonical(policy),
        "scripts": _canonical(list(scripts)),
        "loadgen": _canonical(load_cfg),
    })

    async def one_run(tmp_sock: str):
        server = AdmissionServer(ServeConfig(policy=policy, machine=machine))
        await server.start(unix_path=tmp_sock)
        run_task = asyncio.ensure_future(server.run_until_drained())
        t0 = time.perf_counter()
        report = await run_loadgen(scripts, load_cfg, unix_path=tmp_sock)
        wall = time.perf_counter() - t0
        server.request_drain()
        await asyncio.wait_for(run_task, 30.0)
        # read the service's own registry, not the client-side tally: the
        # serve bench guards the server hot path end to end
        snapshot = server.service.metrics.snapshot()
        return wall, report, snapshot

    def serve_rep() -> List[BenchRecord]:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            wall, report, snapshot = asyncio.run(one_run(f"{tmp}/bench.sock"))
        hist = snapshot["histograms"]["admission_latency_s"]

        def rec(metric: str, value: float, unit: str) -> BenchRecord:
            return BenchRecord(
                area="serve", metric=metric, value=value, unit=unit,
                seed=seed, config_digest=digest, wall_s=round(wall, 6),
            )

        return [
            rec("admissions_per_s", round(report.admitted / wall, 1),
                "admissions/s"),
            rec("admission_latency_p50_s", round(float(hist["p50"]), 9), "s"),
            rec("admission_latency_p99_s", round(float(hist["p99"]), 9), "s"),
            rec("admitted_total", float(report.admitted), "admissions"),
        ]

    return _merge_best([serve_rep() for _ in range(max(1, reps))])


# ----------------------------------------------------------------------
# serve_overload: shed throughput + bounded sojourn under saturation
# ----------------------------------------------------------------------
# 8 clients racing for a capacity that fits one 6.3 MB period at a time,
# each holding 10 ms, keeps the pending queue past max_pending for the
# whole run: the shedding paths (adaptive RETRY_AFTER, park timeouts)
# are the hot path being timed, not a corner case
_OVERLOAD_SESSIONS = 160
_OVERLOAD_CLIENTS = 8
_OVERLOAD_DEMAND_MB = 6.3
_OVERLOAD_HOLD_S = 0.01
_OVERLOAD_MAX_PENDING = 4
_OVERLOAD_PARK_TIMEOUT_S = 0.03
_OVERLOAD_HINT_FLOOR_S = 0.005
_OVERLOAD_HINT_CAP_S = 0.03


def bench_serve_overload(seed: int, reps: int) -> List[BenchRecord]:
    # lazy import, same reasoning as bench_serve
    from ..serve.loadgen import LoadgenConfig, fig4_scripts, run_loadgen
    from ..serve.server import AdmissionServer, ServeConfig

    machine = _serve_machine()
    policy = StrictPolicy()
    scripts = fig4_scripts(
        n=_OVERLOAD_CLIENTS, demand_mb=_OVERLOAD_DEMAND_MB,
        hold_s=_OVERLOAD_HOLD_S,
    )
    serve_cfg = dict(
        max_pending=_OVERLOAD_MAX_PENDING,
        park_timeout_s=_OVERLOAD_PARK_TIMEOUT_S,
        retry_hint_floor_s=_OVERLOAD_HINT_FLOOR_S,
        retry_hint_cap_s=_OVERLOAD_HINT_CAP_S,
        max_pending_per_client=1,
        write_timeout_s=1.0,
    )
    load_cfg = LoadgenConfig(
        mode="closed", clients=_OVERLOAD_CLIENTS, sessions=_OVERLOAD_SESSIONS,
        time_scale=1.0, max_retries=16, seed=seed,
    )
    digest = config_digest({
        "area": "serve_overload",
        "machine": _canonical(machine),
        "policy": _canonical(policy),
        "serve": serve_cfg,
        "scripts": _canonical(list(scripts)),
        "loadgen": _canonical(load_cfg),
    })

    async def one_run(tmp_sock: str):
        server = AdmissionServer(
            ServeConfig(policy=policy, machine=machine, **serve_cfg)
        )
        await server.start(unix_path=tmp_sock)
        run_task = asyncio.ensure_future(server.run_until_drained())
        t0 = time.perf_counter()
        report = await run_loadgen(scripts, load_cfg, unix_path=tmp_sock)
        wall = time.perf_counter() - t0
        server.request_drain()
        await asyncio.wait_for(run_task, 60.0)
        snapshot = server.service.metrics.snapshot()
        return wall, report, snapshot

    def overload_rep() -> List[BenchRecord]:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            wall, report, snapshot = asyncio.run(one_run(f"{tmp}/bench.sock"))
        sojourn = snapshot["histograms"]["queue_sojourn_s"]

        def rec(metric: str, value: float, unit: str) -> BenchRecord:
            return BenchRecord(
                area="serve_overload", metric=metric, value=value, unit=unit,
                seed=seed, config_digest=digest, wall_s=round(wall, 6),
            )

        # Shed counts are timing-dependent, so only the rates and the
        # deadline-pinned sojourn tail are gated; the counts ride along
        # as informational context (non-rate, non-seconds units).
        return [
            rec("calls_per_s", round(report.calls / wall, 1), "calls/s"),
            rec("queue_sojourn_p99_s", round(float(sojourn["p99"]), 9), "s"),
            rec("admitted_total", float(report.admitted), "admissions"),
            rec("shed_total", float(report.shed_calls), "sheds"),
        ]

    return _merge_best([overload_rep() for _ in range(max(1, reps))])


# ----------------------------------------------------------------------
# serve_predict: admission throughput recovered from annotation error
# ----------------------------------------------------------------------
# Every client declares 2x its true working set, so only one declared
# period fits the 8 MB LLC at a time even though two true ones would.
# The declared pass times that loss; the predict pass times the same
# workload with the online estimator correcting the annotations, which
# is the paper's demand-awareness argument turned on the annotations
# themselves.  ``hold_s`` keeps periods open long enough that admission
# concurrency (not protocol round-trips) dominates the wall clock.
_PREDICT_SESSIONS = 120
_PREDICT_CLIENTS = 4
_PREDICT_DEMAND_MB = 3.2
_PREDICT_OVERDECLARE = 2.0
_PREDICT_HOLD_S = 0.005
_PREDICT_MIN_SAMPLES = 3


def bench_serve_predict(seed: int, reps: int) -> List[BenchRecord]:
    # lazy import, same reasoning as bench_serve
    from ..serve.loadgen import LoadgenConfig, fig4_scripts, run_loadgen
    from ..serve.server import AdmissionServer, ServeConfig

    machine = _serve_machine()
    policy = StrictPolicy()
    scripts = fig4_scripts(
        n=_PREDICT_CLIENTS, demand_mb=_PREDICT_DEMAND_MB,
        hold_s=_PREDICT_HOLD_S,
    )
    predict_cfg = dict(
        predict=True,
        predict_min_samples=_PREDICT_MIN_SAMPLES,
    )
    load_cfg = LoadgenConfig(
        mode="closed", clients=_PREDICT_CLIENTS, sessions=_PREDICT_SESSIONS,
        time_scale=1.0, overdeclare=_PREDICT_OVERDECLARE,
        report_observed=True, seed=seed,
    )
    digest = config_digest({
        "area": "serve_predict",
        "machine": _canonical(machine),
        "policy": _canonical(policy),
        "predict": predict_cfg,
        "scripts": _canonical(list(scripts)),
        "loadgen": _canonical(load_cfg),
    })

    async def one_run(tmp_sock: str, predict: bool):
        cfg = ServeConfig(policy=policy, machine=machine)
        if predict:
            cfg = replace(cfg, **predict_cfg)
        server = AdmissionServer(cfg)
        await server.start(unix_path=tmp_sock)
        run_task = asyncio.ensure_future(server.run_until_drained())
        t0 = time.perf_counter()
        report = await run_loadgen(scripts, load_cfg, unix_path=tmp_sock)
        wall = time.perf_counter() - t0
        server.request_drain()
        await asyncio.wait_for(run_task, 60.0)
        snapshot = server.service.metrics.snapshot()
        return wall, report, snapshot

    def predict_rep() -> List[BenchRecord]:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            wall_decl, rep_decl, _ = asyncio.run(
                one_run(f"{tmp}/declared.sock", predict=False)
            )
            wall_pred, rep_pred, snap = asyncio.run(
                one_run(f"{tmp}/predict.sock", predict=True)
            )
        counters = snap["counters"]

        def rec(metric: str, value: float, unit: str,
                wall: float) -> BenchRecord:
            return BenchRecord(
                area="serve_predict", metric=metric, value=value, unit=unit,
                seed=seed, config_digest=digest, wall_s=round(wall, 6),
            )

        # Both throughputs are gated (rate units); the estimator/elastic
        # counters ride along as informational context.
        return [
            rec("admissions_per_s_declared",
                round(rep_decl.admitted / wall_decl, 1),
                "admissions/s", wall_decl),
            rec("admissions_per_s_predicted",
                round(rep_pred.admitted / wall_pred, 1),
                "admissions/s", wall_pred),
            rec("predicted_admits_total",
                float(counters["predicted_admits_total"]),
                "admissions", wall_pred),
            rec("elastic_shrinks_total",
                float(counters["elastic_shrinks_total"]),
                "shrinks", wall_pred),
        ]

    return _merge_best([predict_rep() for _ in range(max(1, reps))])


# ----------------------------------------------------------------------
# cluster: admissions/sec through the sharded front-end placer
# ----------------------------------------------------------------------
_CLUSTER_SHARDS = 3
_CLUSTER_SESSIONS = 240
_CLUSTER_CLIENTS = 6
_CLUSTER_DEMAND_MB = 5.1


def bench_cluster(seed: int, reps: int) -> List[BenchRecord]:
    # lazy import, same reasoning as bench_serve
    from ..serve.cluster import start_local_cluster
    from ..serve.loadgen import LoadgenConfig, fig4_scripts, run_loadgen
    from ..serve.server import ServeConfig

    machine = _serve_machine()
    policy = StrictPolicy()
    scripts = fig4_scripts(
        n=_CLUSTER_CLIENTS, demand_mb=_CLUSTER_DEMAND_MB, hold_s=0.0
    )
    load_cfg = LoadgenConfig(
        mode="closed", clients=_CLUSTER_CLIENTS, sessions=_CLUSTER_SESSIONS,
        time_scale=1.0, seed=seed, cluster=True, binary=True,
    )
    digest = config_digest({
        "area": "cluster",
        "shards": _CLUSTER_SHARDS,
        "machine": _canonical(machine),
        "policy": _canonical(policy),
        "scripts": _canonical(list(scripts)),
        "loadgen": _canonical(load_cfg),
    })

    async def one_run(tmp_sock: str):
        cluster = await start_local_cluster(
            ServeConfig(policy=policy, machine=machine),
            _CLUSTER_SHARDS, tmp_sock, seed=seed,
        )
        run_task = asyncio.ensure_future(cluster.run_until_drained())
        t0 = time.perf_counter()
        report = await run_loadgen(scripts, load_cfg, unix_path=tmp_sock)
        wall = time.perf_counter() - t0
        cluster.request_drain()
        await asyncio.wait_for(run_task, 30.0)
        frontend = cluster.frontend
        counters = {
            "placements": frontend.c_placements.value,
            "redirects": frontend.c_redirects.value,
            "migrations": frontend.c_migrations.value,
            "fragmentation_peak": frontend._frag_peak,
        }
        return wall, report, counters

    def cluster_rep() -> List[BenchRecord]:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            wall, report, counters = asyncio.run(one_run(f"{tmp}/placer.sock"))

        def rec(metric: str, value: float, unit: str) -> BenchRecord:
            return BenchRecord(
                area="cluster", metric=metric, value=value, unit=unit,
                seed=seed, config_digest=digest, wall_s=round(wall, 6),
            )

        redirect_p99 = (
            report.redirect_latency.p99 * 1e3
            if report.redirect_latency.count else 0.0
        )
        # Placement-quality records use informational units so the compare
        # gate leaves them out of the pass/fail decision.
        return [
            rec("admissions_per_s", round(report.admitted / wall, 1),
                "admissions/s"),
            rec("placements_per_s", round(counters["placements"] / wall, 1),
                "placements/s"),
            rec("admitted_total", float(report.admitted), "admissions"),
            rec("redirects_total", float(counters["redirects"]), "redirects"),
            rec("migrations_total", float(counters["migrations"]),
                "migrations"),
            rec("fragmentation_peak",
                round(counters["fragmentation_peak"], 4), "ratio"),
            rec("redirect_latency_p99", round(redirect_p99, 3), "ms"),
        ]

    return _merge_best([cluster_rep() for _ in range(max(1, reps))])


# ----------------------------------------------------------------------
# fleet: sims/sec through run_grid with the content-addressed cache
# ----------------------------------------------------------------------
_FLEET_WORKLOADS = ("BLAS-1", "BLAS-2")
_FLEET_MAX_EVENTS = 2_000_000


def _fleet_requests(seed: int) -> List[RunRequest]:
    requests: List[RunRequest] = []
    for name in _FLEET_WORKLOADS:
        for policy in (StrictPolicy(), CompromisePolicy(oversubscription=1.5)):
            requests.append(RunRequest(
                workload=workload_by_name(name), policy=policy,
                max_events=_FLEET_MAX_EVENTS, seed=seed, tag="bench",
            ))
    return requests


def bench_fleet(
    seed: int, cache_dir: Optional[str] = None, jobs: Optional[int] = None
) -> List[BenchRecord]:
    """Time the fleet grid through a result cache in ``cache_dir``.

    With no directory the grid runs in a fresh temporary one, so every
    run executes and the rate is that of cold execution; a given
    directory is timed as it is, warm entries included.
    """
    requests = _fleet_requests(seed)
    digest = config_digest({
        "area": "fleet",
        "run_keys": [run_key(r) for r in requests],
        "seed": seed,
    })
    directory = (tempfile.TemporaryDirectory(prefix="repro-bench-fleet-")
                 if not cache_dir else contextlib.nullcontext(cache_dir))
    with directory as root:
        t0 = time.perf_counter()
        outcomes = run_grid(requests, jobs=jobs, cache=ResultCache(root))
        wall = time.perf_counter() - t0

    successes = [o for o in outcomes if isinstance(o, RunSuccess)]
    failures = len(outcomes) - len(successes)
    gflops = sum(o.report.gflops for o in successes)

    def rec(metric: str, value: float, unit: str) -> BenchRecord:
        return BenchRecord(
            area="fleet", metric=metric, value=value, unit=unit,
            seed=seed, config_digest=digest, wall_s=round(wall, 6),
        )

    return [
        rec("sims_per_s", round(len(successes) / wall, 3), "sims/s"),
        rec("runs_total", float(len(outcomes)), "runs"),
        rec("failures", float(failures), "runs"),
        rec("gflops_total", round(gflops, 6), "GFLOPS"),
    ]


# ----------------------------------------------------------------------
# mem: trace-driven cache simulator lines/sec + contention model evals/sec
# ----------------------------------------------------------------------
#: the cache under test in perfbench's trace_model: 64 KiB, 8-way
_MEM_CACHE = CacheConfig("bench-L2", kib(64), associativity=8)
_MEM_WC = 1.5  # working set over capacity of the two co-running loops
_MEM_CACHE_PASSES = 640
#: trace_model's 2-core hierarchy; each core loops over 0.75 x LLC
_MEM_HIERARCHY = replace(
    default_machine_config(),
    l1d=CacheConfig("L1-Data", kib(4), associativity=8),
    l2=CacheConfig("L2-Private", kib(16), associativity=8),
    llc=CacheConfig("L3-Shared", kib(128), associativity=16, shared=True),
)
_MEM_HIERARCHY_PASSES = 64
#: co-running sets resolved per rep, 12 demands each (the paper grid's shape)
_MEM_DEMAND_SETS = 64
_MEM_DEMANDS = 12
_MEM_EVALS = 48_000


def _mem_loop(base_line: int, lines: int, passes: int) -> np.ndarray:
    return np.tile((base_line + np.arange(lines, dtype=np.int64)) * 64, passes)


def _mem_two_loops(rng: random.Random, lines: int, passes: int) -> np.ndarray:
    """Two cyclic loops sharing ``lines``, round-robin, the longer's tail last."""
    a_lines = max(1, int(lines * rng.uniform(0.35, 0.65)))
    a = _mem_loop(rng.randrange(1 << 20), a_lines, passes)
    b = _mem_loop(rng.randrange(1 << 20) + (1 << 21), lines - a_lines, passes)
    n = min(a.size, b.size)
    mixed = np.empty(2 * n, dtype=np.int64)
    mixed[0::2], mixed[1::2] = a[:n], b[:n]
    return np.concatenate([mixed, a[n:], b[n:]])


def _mem_demand_sets(rng: random.Random, llc_bytes: int) -> List[List[LlcDemand]]:
    """Seeded co-running sets: private and shared working sets up to half the LLC."""
    return [
        [
            LlcDemand(
                wss_bytes=rng.randrange(llc_bytes // 2),
                reuse=rng.random(),
                sharing_key=rng.choice((None, None, 0, 1, 2)),
            )
            for _ in range(_MEM_DEMANDS)
        ]
        for _ in range(_MEM_DEMAND_SETS)
    ]


def bench_mem(seed: int, reps: int) -> List[BenchRecord]:
    rng = random.Random(seed)
    cache_lines = int(_MEM_WC * _MEM_CACHE.n_lines)
    cache_trace = _mem_two_loops(rng, cache_lines, _MEM_CACHE_PASSES)
    core_lines = int(0.75 * _MEM_HIERARCHY.llc.n_lines)
    core_traces = [
        _mem_loop(rng.randrange(1 << 20) + (core << 21), core_lines,
                  _MEM_HIERARCHY_PASSES)
        for core in range(2)
    ]
    llc_bytes = default_machine_config().llc.capacity_bytes
    demand_sets = _mem_demand_sets(rng, llc_bytes)
    digest = config_digest({
        "area": "mem",
        "cache": _canonical(_MEM_CACHE),
        "wc": _MEM_WC,
        "cache_passes": _MEM_CACHE_PASSES,
        "hierarchy": _canonical(_MEM_HIERARCHY),
        "hierarchy_passes": _MEM_HIERARCHY_PASSES,
        "llc_bytes": llc_bytes,
        "demand_sets": _MEM_DEMAND_SETS,
        "demands": _MEM_DEMANDS,
        "evals": _MEM_EVALS,
        "seed": seed,
    })

    def cache_rep() -> Tuple[float, object]:
        cache = Cache(_MEM_CACHE, replacement="lru")
        t0 = time.perf_counter()
        stats = cache.access_trace(cache_trace)
        return time.perf_counter() - t0, (stats.accesses, stats.hits)

    def hierarchy_rep() -> Tuple[float, object]:
        hierarchy = CacheHierarchy(n_cores=2, config=_MEM_HIERARCHY)
        t0 = time.perf_counter()
        stats = hierarchy.interleave(core_traces)
        return time.perf_counter() - t0, sum(s.accesses for s in stats)

    def contention_rep() -> Tuple[float, object]:
        model = SharedLlcModel(llc_bytes)
        t0 = time.perf_counter()
        for k in range(_MEM_EVALS):
            model.resolve(demand_sets[k % _MEM_DEMAND_SETS])
        return time.perf_counter() - t0, _MEM_EVALS

    cache_wall, (cache_accesses, cache_hits) = _best_of(reps, cache_rep)
    hierarchy_wall, hierarchy_accesses = _best_of(reps, hierarchy_rep)
    contention_wall, evals = _best_of(reps, contention_rep)

    def rec(metric: str, value: float, unit: str, wall: float) -> BenchRecord:
        return BenchRecord(
            area="mem", metric=metric, value=value, unit=unit,
            seed=seed, config_digest=digest, wall_s=round(wall, 6),
        )

    return [
        rec("cache_accesses_per_s", round(cache_accesses / cache_wall, 1),
            "accesses/s", cache_wall),
        rec("hierarchy_accesses_per_s",
            round(hierarchy_accesses / hierarchy_wall, 1), "accesses/s",
            hierarchy_wall),
        rec("contention_evals_per_s", round(evals / contention_wall, 1),
            "evals/s", contention_wall),
        rec("cache_hits_total", float(cache_hits), "hits", cache_wall),
    ]


# ----------------------------------------------------------------------
# profiler: figure-12 window statistics windows/sec + trace generation
# ----------------------------------------------------------------------
#: the figure-12 subjects at their four input scales: 16 traces
_PROFILER_SUBJECTS = (
    ("water_pp1_trace", WATER_INPUTS),
    ("water_pp2_trace", WATER_INPUTS),
    ("ocean_pp1_trace", OCEAN_INPUTS),
    ("ocean_pp2_trace", OCEAN_INPUTS),
)
_PROFILER_ACCESSES = 2_000_000
_PROFILER_WINDOW = 1_000_000  # instructions: the paper's window
#: passes over the 16 traces per timed rep; one pass (93 windows) is about
#: 0.14 s of window statistics on a 2-vCPU VM
_PROFILER_PASSES = 4


def bench_profiler(seed: int, reps: int) -> List[BenchRecord]:
    digest = config_digest({
        "area": "profiler",
        "subjects": [[name, list(scales)] for name, scales in _PROFILER_SUBJECTS],
        "accesses": _PROFILER_ACCESSES,
        "window": _PROFILER_WINDOW,
        "passes": _PROFILER_PASSES,
        "seed": seed,
    })

    def profiler_rep() -> Tuple[float, float, int, int]:
        """Seconds sampling windows and building traces, and their counts.

        Each trace is built under one clock and sampled under another, so
        neither rate pays for the other's work.
        """
        sample_s = build_s = 0.0
        windows = addresses = 0
        for _ in range(_PROFILER_PASSES):
            for name, scales in _PROFILER_SUBJECTS:
                for n in scales:
                    t0 = time.perf_counter()
                    trace = getattr(tracegen, name)(n, n_accesses=_PROFILER_ACCESSES)
                    t1 = time.perf_counter()
                    profile = sampling.sample_windows(trace, _PROFILER_WINDOW)
                    sample_s += time.perf_counter() - t1
                    build_s += t1 - t0
                    windows += len(profile)
                    addresses += len(trace)
        return sample_s, build_s, windows, addresses

    runs = [profiler_rep() for _ in range(max(1, reps))]
    sample_s = min(r[0] for r in runs)
    build_s = min(r[1] for r in runs)
    _, _, windows, addresses = runs[0]

    def rec(metric: str, value: float, unit: str, wall: float) -> BenchRecord:
        return BenchRecord(
            area="profiler", metric=metric, value=value, unit=unit,
            seed=seed, config_digest=digest, wall_s=round(wall, 6),
        )

    return [
        rec("windows_per_s", round(windows / sample_s, 1), "windows/s", sample_s),
        rec("tracegen_addresses_per_s", round(addresses / build_s, 1),
            "addresses/s", build_s),
    ]
