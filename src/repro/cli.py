"""Command-line interface: run the paper's experiments from a shell.

Usage (after ``pip install -e .``)::

    python -m repro table1                 # machine configuration
    python -m repro table2                 # workload inventory
    python -m repro run Water_nsq --policy strict
    python -m repro sweep                  # figures 7-10 (all workloads)
    python -m repro fig 11                 # any of figures 1, 11, 12, 13
    python -m repro serve --policy strict --socket /tmp/rda.sock
    python -m repro loadgen --socket /tmp/rda.sock --workload Water_nsq
    python -m repro chaos --kills 2 --duration 6
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .cliutil import non_negative_float, non_negative_int, positive_float, positive_int
from .config import DEFAULT_CACHE_DIR
from .core.policy import CompromisePolicy, SchedulingPolicy, StrictPolicy
from .errors import ReproError
from .workloads.suite import WORKLOAD_NAMES, workload_by_name

__all__ = ["main", "build_parser", "policy_by_name"]


def policy_by_name(name: str) -> Optional[SchedulingPolicy]:
    """Map a CLI policy name to a policy object (None = Linux default)."""
    lowered = name.lower()
    if lowered in ("default", "linux", "none"):
        return None
    if lowered == "strict":
        return StrictPolicy()
    if lowered.startswith("compromise"):
        # "compromise" or "compromise:1.5"
        if ":" in lowered:
            factor = float(lowered.split(":", 1)[1])
            return CompromisePolicy(oversubscription=factor)
        return CompromisePolicy()
    raise argparse.ArgumentTypeError(
        f"unknown policy {name!r}; expected default, strict or compromise[:x]"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Demand-aware process scheduling (ICPP 2018) — experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the machine configuration (Table 1)")
    sub.add_parser("table2", help="print the workload inventory (Table 2)")

    run_p = sub.add_parser("run", help="run one workload under one policy")
    run_p.add_argument("workload", choices=WORKLOAD_NAMES)
    run_p.add_argument(
        "--policy", type=policy_by_name, default=None,
        help="default | strict | compromise[:factor]",
    )
    run_p.add_argument(
        "--sanitize", action="store_true",
        help="run under the kernel sanitizer (fails on invariant violations)",
    )

    san_p = sub.add_parser(
        "sanitize",
        help="fuzz the scheduler with randomized adversarial workloads "
        "under the runtime invariant checker",
    )
    san_p.add_argument("--seed", type=int, default=0, help="base seed")
    san_p.add_argument(
        "--runs", type=int, default=200, help="number of fuzz cases"
    )
    san_p.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop starting new cases after this much wall-clock time",
    )
    san_p.add_argument(
        "--configs", nargs="*", default=None,
        help="policy configs to fuzz (default: all shipped configs)",
    )
    san_p.add_argument(
        "-v", "--verbose", action="store_true", help="print per-case progress"
    )
    san_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the fuzz campaign (default 1 = serial; "
        "the simulations run are identical for any N)",
    )
    san_p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-simulation wall-clock budget (--jobs >= 2 only); a hung "
        "case becomes a campaign failure instead of a stall",
    )
    san_p.add_argument(
        "--progress", action="store_true",
        help="print one line per settled simulation (alias of --verbose)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the admission controller as a long-lived service "
        "(NDJSON over a unix socket and/or TCP)",
    )
    serve_p.add_argument(
        "--socket", default=None, metavar="PATH",
        help="unix socket path (default 'repro-serve.sock' when no --host)",
    )
    serve_p.add_argument("--host", default=None, help="TCP bind address")
    serve_p.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral)"
    )
    serve_p.add_argument(
        "--policy", type=policy_by_name, default=None,
        help="default | strict | compromise[:factor]",
    )
    serve_p.add_argument(
        "--fifo", action="store_true",
        help="strict arrival-order waitlist draining (head-of-line blocking)",
    )
    serve_p.add_argument(
        "--capacity-mb", type=float, default=None, metavar="MB",
        help="override the managed LLC capacity (default: Table 1 machine)",
    )
    serve_p.add_argument(
        "--max-pending", type=positive_int, default=1024, metavar="N",
        help="parked-admission bound; beyond it pp_begin gets RETRY_AFTER",
    )
    serve_p.add_argument(
        "--park-timeout", type=positive_float, default=30.0,
        metavar="SECONDS",
        help="queue-sojourn bound on parked admissions: past it the period "
        "is cancelled with PARK_TIMEOUT and a retry hint (default 30)",
    )
    serve_p.add_argument(
        "--retry-hint-floor", type=positive_float, default=0.05,
        metavar="SECONDS",
        help="lower clamp of RETRY_AFTER hints, which scale with live "
        "queue occupancy and admission latency (default 0.05; floor == "
        "cap is a constant hint)",
    )
    serve_p.add_argument(
        "--retry-hint-cap", type=positive_float, default=0.05,
        metavar="SECONDS",
        help="upper clamp of RETRY_AFTER hints (default 0.05; raised to "
        "the floor if below it)",
    )
    serve_p.add_argument(
        "--max-pending-per-client", type=positive_int, default=None,
        metavar="N",
        help="per-client parked-admission quota; beyond it pp_begin gets "
        "RETRY_AFTER even while the global queue has room (default: off)",
    )
    serve_p.add_argument(
        "--write-timeout", type=positive_float, default=None,
        metavar="SECONDS",
        help="disconnect a session whose reply write stalls this long "
        "(slow-consumer defense; default: wait forever)",
    )
    serve_p.add_argument(
        "--idle-timeout", type=positive_float, default=None,
        metavar="SECONDS",
        help="disconnect a client idle this long (default: never)",
    )
    serve_p.add_argument(
        "--drain-grace", type=non_negative_float, default=5.0,
        metavar="SECONDS",
        help="drain waits this long for running periods before closing",
    )
    serve_p.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="periodically dump the live metrics snapshot to this file",
    )
    serve_p.add_argument(
        "--metrics-interval", type=positive_float, default=2.0,
        metavar="SECONDS",
    )
    serve_p.add_argument(
        "--sanitize", action="store_true",
        help="attach the online invariant checker; exit 1 on any violation",
    )
    serve_p.add_argument(
        "--journal", default=None, metavar="PATH",
        help="crash-safe admission journal; replayed on startup so admitted "
        "periods survive a server crash",
    )
    serve_p.add_argument(
        "--journal-fsync", type=non_negative_float, default=0.0,
        metavar="SECONDS",
        help="fsync batching window for the journal (0 = fsync per event)",
    )
    serve_p.add_argument(
        "--journal-compact-every", type=positive_int, default=1000,
        metavar="N",
        help="compact the journal after this many appended events",
    )
    serve_p.add_argument(
        "--lease-ttl", type=positive_float, default=10.0, metavar="SECONDS",
        help="client lease time-to-live; a silent client's periods are "
        "reclaimed after this",
    )
    serve_p.add_argument(
        "--lease-check", type=positive_float, default=0.25,
        metavar="SECONDS",
        help="lease reaper sweep interval",
    )
    serve_p.add_argument(
        "--predict", action="store_true",
        help="online demand prediction + elastic re-admission: admit on "
        "max(predicted, floor) once the per-key estimator is confident, "
        "detect mispredictions at close and resize running reservations "
        "(default: off — admission is byte-identical without it)",
    )
    serve_p.add_argument(
        "--predict-error-band", type=positive_float, default=0.25,
        metavar="FRACTION",
        help="relative-error band beyond which a close counts as a "
        "misprediction (default 0.25)",
    )
    serve_p.add_argument(
        "--predict-min-samples", type=positive_int, default=3, metavar="N",
        help="observations per (client, key) before the estimator may "
        "override the declared demand (default 3)",
    )
    serve_p.add_argument(
        "--predict-history", type=positive_int, default=32, metavar="N",
        help="demand samples retained per key (default 32)",
    )
    serve_p.add_argument(
        "--predict-hysteresis", type=positive_int, default=2, metavar="N",
        help="consecutive same-direction mispredictions before an elastic "
        "resize (default 2)",
    )
    serve_p.add_argument(
        "--shards", type=positive_int, default=1, metavar="N",
        help="run N admission shards behind a demand-aware placer "
        "front-end on --socket (shard i listens on <socket>.shard<i>; "
        "capacity/journal options apply per shard)",
    )
    serve_p.add_argument(
        "--placer-seed", type=int, default=0, metavar="SEED",
        help="tie-break seed of the cluster placer (with --shards > 1)",
    )
    serve_p.add_argument(
        "--rebalance-fragmentation", type=positive_float, default=0.5,
        metavar="RATIO",
        help="with --shards > 1: trigger proactive parked-client rebalance "
        "when free-capacity fragmentation reaches this ratio (default 0.5)",
    )
    serve_p.add_argument(
        "--no-supervise", action="store_true",
        help="with --shards > 1: do not auto-restart dead shards from "
        "their journals",
    )

    place_p = sub.add_parser(
        "place",
        help="run a demand-aware placer front-end over already-running "
        "admission shards",
    )
    place_p.add_argument(
        "--socket", default="repro-place.sock", metavar="PATH",
        help="unix socket the front-end listens on",
    )
    place_p.add_argument(
        "--shard", action="append", default=[], metavar="NAME=ADDR",
        help="one shard as name=unix-socket-path or name=host:port "
        "(repeatable; at least one required)",
    )
    place_p.add_argument("--seed", type=int, default=0)
    place_p.add_argument(
        "--no-migration", action="store_true",
        help="disable parked-client migration between shards",
    )
    place_p.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="periodically dump the placer metrics snapshot to this file",
    )

    load_p = sub.add_parser(
        "loadgen", help="drive a running admission server with replayed load"
    )
    load_p.add_argument(
        "--socket", default=None, metavar="PATH", help="server unix socket"
    )
    load_p.add_argument("--host", default=None, help="server TCP address")
    load_p.add_argument(
        "--port", type=positive_int, default=None, help="server TCP port"
    )
    load_p.add_argument(
        "--workload", default="fig4",
        help="suite workload to replay, or 'fig4' for the synthetic "
        f"single-period sessions (suite: {', '.join(WORKLOAD_NAMES)})",
    )
    load_p.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="closed = N persistent clients; open = Poisson arrivals",
    )
    load_p.add_argument(
        "--clients", type=positive_int, default=4,
        help="closed loop: concurrent clients",
    )
    load_p.add_argument(
        "--rate", type=positive_float, default=20.0,
        help="open loop: mean session arrivals per second",
    )
    load_p.add_argument(
        "--sessions", type=positive_int, default=None,
        help="total sessions to run (default: bounded by --duration)",
    )
    load_p.add_argument(
        "--duration", type=positive_float, default=None, metavar="SECONDS",
        help="stop starting new sessions after this much wall time",
    )
    load_p.add_argument(
        "--time-scale", type=non_negative_float, default=None,
        help="multiply scripted hold times (default 1e-4 for suite "
        "workloads, 1.0 for fig4)",
    )
    load_p.add_argument("--seed", type=int, default=0)
    load_p.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    load_p.add_argument(
        "--drain", action="store_true",
        help="ask the server to drain once the run finishes",
    )
    load_p.add_argument(
        "--resilient", action="store_true",
        help="use lease-bound resilient clients that survive server "
        "restarts and flaky transports",
    )
    load_p.add_argument(
        "--binary", action="store_true",
        help="negotiate the length-prefixed binary framing in each "
        "client's hello (resilient clients re-negotiate on reconnect)",
    )
    load_p.add_argument(
        "--cluster", action="store_true",
        help="target is a placer front-end: use resilient clients that "
        "follow REDIRECT replies to their assigned shard",
    )
    load_p.add_argument(
        "--overdeclare", type=positive_float, default=1.0, metavar="FACTOR",
        help="declare each call's demand at this multiple of the scripted "
        "working set (models annotation error; default 1.0 = honest)",
    )
    load_p.add_argument(
        "--observe", action="store_true",
        help="report the scripted (true) working set as observed_bytes on "
        "every pp_end, feeding a serve --predict estimator",
    )
    _add_resilient_client_options(load_p)

    chaos_p = sub.add_parser(
        "chaos",
        help="fault-injection campaign: kill and restart a journaled server "
        "under load through a frame-mangling proxy, then verify recovery",
    )
    chaos_p.add_argument("--seed", type=int, default=0)
    chaos_p.add_argument(
        "--duration", type=positive_float, default=6.0, metavar="SECONDS",
        help="load phase wall-clock budget",
    )
    chaos_p.add_argument(
        "--clients", type=positive_int, default=4,
        help="concurrent resilient clients",
    )
    chaos_p.add_argument(
        "--kills", type=non_negative_int, default=2,
        help="SIGKILL/restart cycles during the load",
    )
    chaos_p.add_argument(
        "--kill-interval", type=non_negative_float, default=1.5,
        metavar="SECONDS",
        help="gap between kills",
    )
    chaos_p.add_argument(
        "--policy", default="strict",
        help="admission policy name passed to the server (default strict)",
    )
    chaos_p.add_argument(
        "--capacity-mb", type=positive_float, default=8.0, metavar="MB",
        help="managed LLC capacity of the chaos server",
    )
    chaos_p.add_argument(
        "--lease-ttl", type=positive_float, default=1.5, metavar="SECONDS",
        help="client lease time-to-live on the chaos server",
    )
    chaos_p.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="directory for sockets and the journal (default: a temp dir)",
    )
    chaos_p.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    chaos_p.add_argument(
        "--cluster", action="store_true",
        help="cluster campaign: SIGKILL/restart individual admission "
        "shards behind a placer front-end instead of the single server",
    )
    chaos_p.add_argument(
        "--shards", type=positive_int, default=3, metavar="N",
        help="shard count for --cluster / --rolling (default 3)",
    )
    chaos_p.add_argument(
        "--supervise", action="store_true",
        help="--cluster: let the front-end supervisor restart killed "
        "shards from their journals instead of the harness",
    )
    chaos_p.add_argument(
        "--rolling", action="store_true",
        help="rolling-restart campaign: drain and restart every shard of "
        "a supervised cluster under live load, asserting zero lost periods",
    )
    chaos_p.add_argument(
        "--rolling-grace", type=positive_float, default=3.0,
        metavar="SECONDS",
        help="--rolling: per-shard drain grace before a forced restart "
        "(default 3.0)",
    )
    chaos_p.add_argument(
        "--overload", action="store_true",
        help="overload campaign: open-loop arrival storm plus slow "
        "consumers against a server with the overload defenses armed "
        "(adaptive retry hints, park deadlines, quotas, write budget)",
    )
    chaos_p.add_argument(
        "--storm-rate", type=positive_float, default=150.0, metavar="RATE",
        help="--overload: mean session arrivals per second (default 150)",
    )
    chaos_p.add_argument(
        "--slowloris", type=non_negative_int, default=2, metavar="N",
        help="--overload: concurrent slow consumers that never read "
        "replies (default 2)",
    )
    chaos_p.add_argument(
        "--p99-bound", type=positive_float, default=5.0, metavar="SECONDS",
        help="--overload: admitted calls must keep p99 admission latency "
        "under this (default 5.0)",
    )
    _add_resilient_client_options(chaos_p)

    sweep_p = sub.add_parser(
        "sweep", help="figures 7-10: every workload under every policy"
    )
    sweep_p.add_argument(
        "--workloads", nargs="*", choices=WORKLOAD_NAMES, default=WORKLOAD_NAMES,
    )
    sweep_p.add_argument(
        "--chart", action="store_true", help="render bar charts instead of tables"
    )
    _add_grid_options(sweep_p)

    bench_p = sub.add_parser(
        "bench", help="run the performance benchmark harness (BENCH_*.json)"
    )
    bench_p.add_argument(
        "--quick", action="store_true",
        help="time each workload once instead of best-of-3 (CI smoke mode)",
    )
    bench_p.add_argument(
        "--seed", type=int, default=1234, help="workload RNG seed (default 1234)"
    )
    bench_p.add_argument(
        "--out-dir", default=".", metavar="DIR",
        help="where BENCH_*.json files are written (default: repo root)",
    )
    bench_p.add_argument(
        "--areas", nargs="*",
        choices=(
            "sim", "serve", "fleet", "cluster", "serve_overload",
            "serve_predict", "mem", "profiler",
        ),
        default=(
            "sim", "serve", "fleet", "cluster", "serve_overload",
            "serve_predict", "mem", "profiler",
        ),
        help="benchmark areas to run (default: all)",
    )
    bench_p.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"fleet result cache directory (default {DEFAULT_CACHE_DIR!r})",
    )
    bench_p.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fleet worker processes (default: serial)",
    )
    bench_p.add_argument(
        "--compare-to", default=None, metavar="DIR",
        help="directory holding baseline BENCH_*.json files; exit 1 on any "
        "metric regressing beyond --tolerance",
    )
    bench_p.add_argument(
        "--tolerance", type=float, default=0.30, metavar="FRACTION",
        help="allowed relative regression for gated metrics (default 0.30)",
    )

    fig_p = sub.add_parser("fig", help="regenerate one figure")
    fig_p.add_argument("number", type=int, choices=(1, 11, 12, 13))
    fig_p.add_argument(
        "--chart", action="store_true", help="render a chart instead of a table"
    )
    _add_grid_options(fig_p)

    return parser


def _add_resilient_client_options(parser: argparse.ArgumentParser) -> None:
    """Resilient-client tuning shared by ``loadgen`` and ``chaos``."""
    parser.add_argument(
        "--backoff-cap", type=positive_float, default=None,
        metavar="SECONDS",
        help="resilient clients: transport-retry backoff ceiling "
        "(default: the client's own 1.0 s)",
    )
    parser.add_argument(
        "--breaker-threshold", type=positive_int, default=None, metavar="N",
        help="resilient clients: open the circuit breaker after N "
        "consecutive connect failures (default: breaker disabled)",
    )
    parser.add_argument(
        "--breaker-reset", type=positive_float, default=None,
        metavar="SECONDS",
        help="resilient clients: breaker reset window before the "
        "half-open probe (default 1.0, or 0.2 under chaos --overload)",
    )


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    """Parallel-fleet options shared by the grid-shaped commands."""
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the experiment grid (default 1 = serial; "
        "results are identical for any N)",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"result cache directory (default {DEFAULT_CACHE_DIR!r})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every run; neither read nor write the cache",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget (--jobs >= 2 only); an overrunning "
        "run becomes a failure record instead of stalling the grid",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print one line per completed run with a running ETA",
    )


class _GridTracker:
    """Collect grid counters (and optionally echo per-run progress)."""

    def __init__(self, echo: bool) -> None:
        self.echo = echo
        self.total = self.executed = self.cached = self.failed = 0

    def __call__(self, event) -> None:
        from .experiments.parallel import print_progress

        self.total = event.total
        self.executed = event.executed
        self.cached = event.cached
        self.failed = event.failed
        if self.echo:
            print_progress(event)

    def summary(self) -> str:
        return (
            f"# grid: {self.total} runs — {self.executed} executed, "
            f"{self.cached} cached, {self.failed} failed"
        )


def _cmd_run(args) -> int:
    from .experiments.runner import run_workload

    workload = workload_by_name(args.workload)
    rep = run_workload(workload, args.policy, sanitize=args.sanitize)
    policy_name = args.policy.name if args.policy else "Linux Default"
    print(f"# {args.workload} under {policy_name}")
    print(rep.describe())
    if args.sanitize:
        print("sanitizer: 0 violations")
    return 0


def _cmd_sanitize(args) -> int:
    from .sanitizer import FUZZ_CONFIGS, run_fuzz

    names = [c[0] for c in FUZZ_CONFIGS]
    if args.configs:
        unknown = [c for c in args.configs if c not in names]
        if unknown:
            print(f"unknown config(s) {unknown}; available: {names}")
            return 2

    progress = None
    if args.verbose or args.progress:
        def progress(run, outcome):
            status = "ok" if outcome.ok else "FAIL"
            print(
                f"run {run} seed={outcome.seed} config={outcome.config:<16}"
                f" events={outcome.events:<7} {status}",
                flush=True,
            )

    report = run_fuzz(
        seed=args.seed,
        runs=args.runs,
        time_budget_s=args.time_budget,
        configs=args.configs or None,
        progress=progress,
        jobs=args.jobs,
        timeout_s=args.timeout,
    )
    print(report.describe())
    return 0 if report.ok else 1


def _machine_with_capacity(capacity_mb: Optional[float]):
    """The Table-1 machine, optionally with an overridden LLC capacity."""
    from dataclasses import replace

    from .config import default_machine_config

    machine = default_machine_config()
    if capacity_mb is None:
        return machine
    # capacity must stay a whole number of sets x ways
    quantum = machine.llc.line_bytes * machine.llc.associativity
    capacity = max(quantum, int(capacity_mb * 1024 * 1024) // quantum * quantum)
    return replace(machine, llc=replace(machine.llc, capacity_bytes=capacity))


def _predict_settings_problem(args) -> Optional[str]:
    """Why the ``--predict-*`` flags cannot build an estimator, or None."""
    from .predict import OnlineWssEstimator

    try:
        OnlineWssEstimator(
            history=args.predict_history,
            min_samples=args.predict_min_samples,
            error_band=args.predict_error_band,
        )
    except ValueError as exc:
        return f"bad --predict-history/--predict-min-samples: {exc}"
    return None


def _cmd_serve(args, parser: argparse.ArgumentParser) -> int:
    import asyncio

    from .serve import ServeConfig

    problem = _predict_settings_problem(args)
    if problem is not None:
        parser.error(f"serve: {problem}")  # exits 2 before any bind
    socket_path = args.socket
    if socket_path is None and args.host is None:
        socket_path = "repro-serve.sock"
    cfg = ServeConfig(
        policy=args.policy,
        machine=_machine_with_capacity(args.capacity_mb),
        strict_fifo=args.fifo,
        max_pending=args.max_pending,
        park_timeout_s=args.park_timeout,
        retry_hint_floor_s=args.retry_hint_floor,
        retry_hint_cap_s=args.retry_hint_cap,
        max_pending_per_client=args.max_pending_per_client,
        write_timeout_s=args.write_timeout,
        idle_timeout_s=args.idle_timeout,
        drain_grace_s=args.drain_grace,
        sanitize=args.sanitize,
        metrics_json=args.metrics_json,
        metrics_interval_s=args.metrics_interval,
        journal_path=args.journal,
        journal_fsync_s=args.journal_fsync,
        journal_compact_every=args.journal_compact_every,
        lease_ttl_s=args.lease_ttl,
        lease_check_s=args.lease_check,
        predict=args.predict,
        predict_error_band=args.predict_error_band,
        predict_min_samples=args.predict_min_samples,
        predict_history=args.predict_history,
        predict_hysteresis=args.predict_hysteresis,
    )

    async def run() -> int:
        from .serve.server import AdmissionServer

        server = AdmissionServer(cfg)
        await server.start(
            unix_path=socket_path, host=args.host,
            port=args.port if args.host is not None else None,
        )
        server.install_signal_handlers()
        policy_name = cfg.policy.name if cfg.policy else "Always Admit"
        where = []
        if socket_path:
            where.append(f"unix:{socket_path}")
        if args.host is not None:
            where.append(f"tcp:{args.host}:{server.tcp_port}")
        print(
            f"# serving admission control ({policy_name}, "
            f"LLC {cfg.machine.llc_capacity / (1024 * 1024):.1f} MiB) "
            f"on {' and '.join(where)}",
            flush=True,
        )
        if server.service.replayed_periods:
            print(
                f"# journal replay: {server.service.replayed_periods} "
                "admitted period(s) restored",
                flush=True,
            )
        await server.run_until_drained()
        sanitizer = server.service.sanitizer
        if sanitizer is not None:
            print(sanitizer.summary())
            return 0 if sanitizer.ok else 1
        return 0

    async def run_cluster() -> int:
        from .serve.cluster import start_local_cluster

        cluster = await start_local_cluster(
            cfg, args.shards, socket_path, seed=args.placer_seed,
            cluster_overrides={
                "rebalance_fragmentation": args.rebalance_fragmentation,
            },
            supervise=not args.no_supervise,
        )
        cluster.install_signal_handlers()
        policy_name = cfg.policy.name if cfg.policy else "Always Admit"
        print(
            f"# serving clustered admission control ({policy_name}, "
            f"{args.shards} shard(s) x "
            f"LLC {cfg.machine.llc_capacity / (1024 * 1024):.1f} MiB) "
            f"on unix:{socket_path}",
            flush=True,
        )
        return await cluster.run_until_drained()

    if args.shards > 1:
        if socket_path is None:
            print(
                "serve: --shards needs --socket (shards listen on "
                "<socket>.shard<i>)", file=sys.stderr,
            )
            return 2
        return asyncio.run(run_cluster())
    return asyncio.run(run())


def _parse_shard_spec(spec: str):
    """``name=unix-path`` or ``name=host:port`` into a ShardAddress."""
    from .serve.placer import ShardAddress

    name, sep, addr = spec.partition("=")
    if not sep or not name or not addr:
        raise ValueError(f"bad shard spec {spec!r}: expected name=addr")
    host, sep, port = addr.rpartition(":")
    if sep and port.isdigit() and "/" not in addr:
        return ShardAddress(name=name, host=host, port=int(port))
    return ShardAddress(name=name, unix_path=addr)


def _cmd_place(args) -> int:
    import asyncio

    from .serve.cluster import ClusterConfig, ClusterFrontend

    try:
        shards = tuple(_parse_shard_spec(spec) for spec in args.shard)
    except ValueError as exc:
        print(f"place: {exc}", file=sys.stderr)
        return 2
    if not shards:
        print("place: need at least one --shard name=addr", file=sys.stderr)
        return 2
    cfg = ClusterConfig(
        shards=shards,
        seed=args.seed,
        migration=not args.no_migration,
        metrics_json=args.metrics_json,
    )

    async def run() -> int:
        frontend = ClusterFrontend(cfg)
        await frontend.start(unix_path=args.socket)
        frontend.install_signal_handlers()
        print(
            f"# placing over {len(shards)} shard(s) "
            f"({', '.join(s.describe() for s in shards)}) "
            f"on unix:{args.socket}",
            flush=True,
        )
        await frontend.run_until_drained()
        return 0

    return asyncio.run(run())


def _cmd_loadgen(args) -> int:
    import json as json_mod

    from .serve import LoadgenConfig, fig4_scripts, run_loadgen_sync
    from .workloads.export import export_pp_sequences

    if args.socket is None and args.host is None:
        print("loadgen: need --socket or --host/--port", file=sys.stderr)
        return 2
    if args.workload == "fig4":
        scripts = fig4_scripts(n=8)
        time_scale = args.time_scale if args.time_scale is not None else 1.0
    else:
        if args.workload not in WORKLOAD_NAMES:
            print(
                f"unknown workload {args.workload!r}; expected 'fig4' or one "
                f"of {', '.join(WORKLOAD_NAMES)}",
                file=sys.stderr,
            )
            return 2
        scripts = export_pp_sequences(workload_by_name(args.workload))
        time_scale = args.time_scale if args.time_scale is not None else 1e-4
    sessions = args.sessions
    if sessions is None and args.duration is None:
        sessions = len(scripts)
    cfg = LoadgenConfig(
        mode=args.mode,
        clients=args.clients,
        rate=args.rate,
        sessions=sessions,
        duration_s=args.duration,
        time_scale=time_scale,
        drain=args.drain,
        resilient=args.resilient,
        binary=args.binary,
        cluster=args.cluster,
        client_backoff_cap_s=args.backoff_cap,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=(
            args.breaker_reset if args.breaker_reset is not None else 1.0
        ),
        overdeclare=args.overdeclare,
        report_observed=args.observe,
        seed=args.seed,
    )
    try:
        report = run_loadgen_sync(
            scripts, cfg, unix_path=args.socket, host=args.host, port=args.port
        )
    except (ReproError, OSError) as exc:
        print(f"loadgen: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json_mod.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    return 0 if report.protocol_errors == 0 else 1


def _cmd_chaos(args) -> int:
    import asyncio
    import json as json_mod
    import tempfile

    from .serve.chaos import ChaosConfig, run_chaos

    exclusive = [
        flag for flag in ("overload", "cluster", "rolling")
        if getattr(args, flag)
    ]
    if len(exclusive) > 1:
        print(
            "chaos: --" + " and --".join(exclusive) + " are mutually "
            "exclusive", file=sys.stderr,
        )
        return 2
    if args.supervise and not args.cluster:
        print("chaos: --supervise needs --cluster", file=sys.stderr)
        return 2
    cfg = ChaosConfig(
        kind=(
            "overload" if args.overload
            else "rolling" if args.rolling
            else "supervised" if args.supervise
            else "cluster" if args.cluster
            else "server"
        ),
        seed=args.seed,
        duration_s=args.duration,
        clients=args.clients,
        kills=args.kills,
        kill_interval_s=args.kill_interval,
        policy=args.policy,
        capacity_mb=args.capacity_mb,
        lease_ttl_s=args.lease_ttl,
        shards=args.shards,
        rolling_grace_s=args.rolling_grace,
        storm_rate=args.storm_rate,
        slowloris=args.slowloris,
        p99_bound_s=args.p99_bound,
        backoff_cap_s=args.backoff_cap,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=(
            args.breaker_reset if args.breaker_reset is not None else 0.2
        ),
    )
    try:
        if args.workdir is not None:
            report = asyncio.run(run_chaos(cfg, args.workdir))
        else:
            with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
                report = asyncio.run(run_chaos(cfg, workdir))
    except (ReproError, OSError) as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json_mod.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    return 0 if report.ok else 1


def _cmd_sweep(args) -> int:
    from .experiments import figures, report
    from .experiments.charts import grouped_bar_chart

    tracker = _GridTracker(echo=args.progress)
    try:
        sweep = figures.figures7to10(
            args.workloads,
            jobs=args.jobs,
            cache=None if args.no_cache else args.cache_dir,
            timeout_s=args.timeout,
            progress=tracker,
        )
    except ReproError as exc:
        print(tracker.summary())
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    if args.chart:
        for metric, title, unit in (
            ("system_j", "Figure 7: system energy", "J"),
            ("dram_j", "Figure 8: DRAM energy", "J"),
            ("gflops", "Figure 9: performance", "GFLOPS"),
            ("gflops_per_watt", "Figure 10: efficiency", "GFLOPS/W"),
        ):
            groups = {
                wl: {p: getattr(r, metric) for p, r in reports.items()}
                for wl, reports in sweep.items()
            }
            print(grouped_bar_chart(groups, title=title, unit=unit))
            print()
    else:
        for renderer in (
            report.render_figure7,
            report.render_figure8,
            report.render_figure9,
            report.render_figure10,
        ):
            print(renderer(sweep))
            print()
    print(report.render_comparison_summary(sweep))
    print(tracker.summary())
    return 0


def _cmd_bench(args) -> int:
    from .bench import BenchError, BenchOptions, run_bench

    opts = BenchOptions(
        quick=args.quick,
        seed=args.seed,
        out_dir=args.out_dir,
        areas=args.areas,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        compare_to=args.compare_to,
        tolerance=args.tolerance,
    )
    try:
        return run_bench(opts)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def _cmd_fig(args) -> int:
    from .experiments import figures, report
    from .experiments.charts import bar_chart, line_chart

    chart = getattr(args, "chart", False)
    tracker = _GridTracker(echo=args.progress)
    grid_kwargs = dict(
        jobs=args.jobs,
        cache=None if args.no_cache else args.cache_dir,
        timeout_s=args.timeout,
        progress=tracker,
    )
    if args.number == 1:
        points = figures.figure1_timeline(
            jobs=args.jobs, cache=None if args.no_cache else args.cache_dir
        )
        if chart:
            print(bar_chart(
                {n: p.wall_s * 1e3 for n, p in points.items()},
                title="Figure 1: wall time of two conflicting processes",
                unit="ms",
            ))
        else:
            for name, p in points.items():
                print(
                    f"{name:<16} wall {p.wall_s * 1e3:7.1f} ms  "
                    f"LLC misses {p.llc_misses:9.3e}  switches "
                    f"{int(p.context_switches)}"
                )
    elif args.number == 11:
        reports = figures.figure11_overhead(**grid_kwargs)
        if chart:
            print(bar_chart(
                {k: r.gflops for k, r in reports.items()},
                title="Figure 11: dgemm GFLOPS vs tracking granularity",
                unit="GFLOPS",
            ))
        else:
            print(report.render_figure11(reports))
    elif args.number == 12:
        curves = figures.figure12_wss_prediction()
        if chart:
            series = {
                c.name: list(zip(c.input_sizes, c.measured_mb)) for c in curves
            }
            print(line_chart(
                series,
                title="Figure 12: measured WSS (MB) vs input size",
                x_label="input size",
                y_label="WSS (MB)",
                logx=True,
            ))
        else:
            print(report.render_figure12(curves))
    elif args.number == 13:
        grid = figures.figure13_interference(**grid_kwargs)
        if chart:
            series = {
                f"n={n}": [(i, g) for i, g in row.items()]
                for n, row in grid.items()
            }
            print(line_chart(
                series,
                title="Figure 13: GFLOPS vs concurrent instances",
                x_label="instances",
                y_label="GFLOPS",
            ))
        else:
            print(report.render_figure13(grid))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("table1", "table2"):
        from .experiments import figures

        if args.command == "table1":
            print(figures.table1_machine())
            return 0
        for row in figures.table2_rows():
            print(
                f"{row['workload']:<10} procs={row['n_processes']:<3} "
                f"thr/proc={row['threads_per_proc']}  wss={row['wss_mb']} MB  "
                f"reuse={row['reuses']}"
            )
        return 0
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sanitize":
        return _cmd_sanitize(args)
    if args.command == "serve":
        return _cmd_serve(args, parser)
    if args.command == "place":
        return _cmd_place(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "fig":
        return _cmd_fig(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
