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

from .cliutil import (
    add_options,
    finite_positive_float,
    from_args,
    listen_port,
    non_negative_float,
    port,
    positive_float,
    positive_int,
    tolerance,
)
from .config import DEFAULT_CACHE_DIR
from .core.policy import CompromisePolicy, SchedulingPolicy, StrictPolicy
from .errors import ConfigError, ReproError
from .serve.config import ChaosConfig, ClusterConfig, LoadgenConfig, ServeConfig
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
        "--runs", type=positive_int, default=200, help="number of fuzz cases"
    )
    san_p.add_argument(
        "--time-budget", type=positive_float, default=None, metavar="SECONDS",
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
        "--jobs", type=positive_int, default=1, metavar="N",
        help="worker processes for the fuzz campaign (default 1 = serial; "
        "the simulations run are identical for any N)",
    )
    san_p.add_argument(
        "--timeout", type=positive_float, default=None, metavar="SECONDS",
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
        "--port", type=listen_port, default=0, help="TCP port (0 = ephemeral)"
    )
    for policy_p in (run_p, serve_p):
        policy_p.add_argument(
            "--policy", type=policy_by_name, default=None,
            help="default | strict | compromise[:factor]",
        )
    serve_p.add_argument(
        "--capacity-mb", type=finite_positive_float, default=None,
        metavar="MB",
        help="override the managed LLC capacity (default: Table 1 machine)",
    )
    add_options(serve_p, ServeConfig)
    serve_p.add_argument(
        "--shards", type=positive_int, default=1, metavar="N",
        help="run N admission shards behind a demand-aware placer "
        "front-end on --socket (shard i listens on <socket>.shard<i>; "
        "capacity/journal options apply per shard)",
    )
    add_options(
        serve_p, ClusterConfig, "rebalance_fragmentation", seed="--placer-seed"
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
    add_options(place_p, ClusterConfig, "seed", "migration", "metrics_json")

    load_p = sub.add_parser(
        "loadgen", help="drive a running admission server with replayed load"
    )
    load_p.add_argument(
        "--socket", default=None, metavar="PATH", help="server unix socket"
    )
    load_p.add_argument("--host", default=None, help="server TCP address")
    load_p.add_argument("--port", type=port, default=None, help="server TCP port")
    load_p.add_argument(
        "--workload", default="fig4",
        help="suite workload to replay, or 'fig4' for the synthetic "
        f"single-period sessions (suite: {', '.join(WORKLOAD_NAMES)})",
    )
    load_p.add_argument(
        "--time-scale", type=non_negative_float, default=None,
        help="multiply scripted hold times (default 1e-4 for suite "
        "workloads, 1.0 for fig4)",
    )
    load_p.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    add_options(load_p, LoadgenConfig)

    chaos_p = sub.add_parser(
        "chaos",
        help="fault-injection campaign: kill and restart a journaled server "
        "under load through a frame-mangling proxy, then verify recovery",
    )
    add_options(chaos_p, ChaosConfig)
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
        "--overload", action="store_true",
        help="overload campaign: open-loop arrival storm plus slow "
        "consumers against a server with the overload defenses armed "
        "(adaptive retry hints, park deadlines, quotas, write budget)",
    )

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
        "--cache-dir", default=None, metavar="DIR",
        help="fleet result cache directory (default: a fresh temporary "
        "directory, so the fleet times cold execution)",
    )
    bench_p.add_argument(
        "--jobs", type=positive_int, default=None, metavar="N",
        help="fleet worker processes (default: serial)",
    )
    bench_p.add_argument(
        "--compare-to", default=None, metavar="DIR",
        help="directory holding baseline BENCH_*.json files; exit 1 on any "
        "metric regressing beyond --tolerance",
    )
    bench_p.add_argument(
        "--tolerance", type=tolerance, default=0.30, metavar="FRACTION",
        help="allowed relative regression for gated metrics (default 0.30)",
    )

    fig_p = sub.add_parser("fig", help="regenerate one figure")
    fig_p.add_argument("number", type=int, choices=(1, 11, 12, 13))
    fig_p.add_argument(
        "--chart", action="store_true", help="render a chart instead of a table"
    )
    _add_grid_options(fig_p)

    return parser


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    """Parallel-fleet options shared by the grid-shaped commands."""
    parser.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
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
        "--timeout", type=positive_float, default=None, metavar="SECONDS",
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


def _cmd_serve(args) -> int:
    import asyncio

    socket_path = args.socket
    if socket_path is None and args.host is None:
        socket_path = "repro-serve.sock"
    cfg = from_args(
        ServeConfig, args, policy=args.policy,
        machine=_machine_with_capacity(args.capacity_mb),
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
    host, sep, port_text = addr.rpartition(":")
    if sep and port_text.isdigit() and "/" not in addr:
        return ShardAddress(name=name, host=host, port=int(port_text))
    return ShardAddress(name=name, unix_path=addr)


def _cmd_place(args) -> int:
    import asyncio

    from .serve.cluster import ClusterFrontend

    try:
        shards = tuple(_parse_shard_spec(spec) for spec in args.shard)
    except ValueError as exc:
        print(f"place: {exc}", file=sys.stderr)
        return 2
    if not shards:
        print("place: need at least one --shard name=addr", file=sys.stderr)
        return 2
    cfg = from_args(ClusterConfig, args, shards=shards)

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

    from .serve.loadgen import fig4_scripts, run_loadgen_sync
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
    cfg = from_args(
        LoadgenConfig, args, sessions=sessions, time_scale=time_scale
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

    from .serve.chaos import run_chaos

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
    kind = (
        "overload" if args.overload
        else "rolling" if args.rolling
        else "supervised" if args.supervise
        else "cluster" if args.cluster
        else "server"
    )
    cfg = from_args(ChaosConfig, args, kind=kind)
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


def _cmd_table(args) -> int:
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


_COMMANDS = {
    "table1": _cmd_table, "table2": _cmd_table, "run": _cmd_run,
    "sanitize": _cmd_sanitize, "serve": _cmd_serve, "place": _cmd_place,
    "loadgen": _cmd_loadgen, "chaos": _cmd_chaos, "sweep": _cmd_sweep,
    "bench": _cmd_bench, "fig": _cmd_fig,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:  # a config refused a value: exit 2, unbound
        parser.error(f"{args.command}: {exc}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
