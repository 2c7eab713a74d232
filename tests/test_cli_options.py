"""The service's options, each declared once on its config field.

``ServeConfig``, ``ClusterConfig``, ``LoadgenConfig`` and ``ChaosConfig``
carry their flags in field metadata (``repro.cliutil.option``); the CLI
builds ``serve``, ``place``, ``loadgen`` and ``chaos`` from them.  These
tests pin every subcommand's flags (no flag lost, no default moved) and
check that the Python API refuses each value the command line refuses.
"""

import argparse
import math
from dataclasses import fields

import pytest

from repro.cli import build_parser, main
from repro.cliutil import from_args
from repro.errors import ConfigError
from repro.serve import ChaosConfig, ClusterConfig, LoadgenConfig, ServeConfig

#: every subcommand's flags: (option string, dest, parsed default), as the
#: parser read them before the service's flags moved onto their config
#: fields.  One default is the value the config took rather than the
#: parser's: ``--breaker-reset`` parsed to None there and the command
#: substituted 1.0 (0.2 under ``chaos``); the flag now carries that value.
INVENTORY = {
    "table1": [],
    "table2": [],
    "run": [
        ("--policy", "policy", None),
        ("--sanitize", "sanitize", False),
    ],
    "sanitize": [
        ("--seed", "seed", 0),
        ("--runs", "runs", 200),
        ("--time-budget", "time_budget", None),
        ("--configs", "configs", None),
        ("-v", "verbose", False),
        ("--verbose", "verbose", False),
        ("--jobs", "jobs", 1),
        ("--timeout", "timeout", None),
        ("--progress", "progress", False),
    ],
    "serve": [
        ("--socket", "socket", None),
        ("--host", "host", None),
        ("--port", "port", 0),
        ("--policy", "policy", None),
        ("--fifo", "fifo", False),
        ("--capacity-mb", "capacity_mb", None),
        ("--max-pending", "max_pending", 1024),
        ("--park-timeout", "park_timeout", 30.0),
        ("--retry-hint-floor", "retry_hint_floor", 0.05),
        ("--retry-hint-cap", "retry_hint_cap", 0.05),
        ("--max-pending-per-client", "max_pending_per_client", None),
        ("--write-timeout", "write_timeout", None),
        ("--idle-timeout", "idle_timeout", None),
        ("--drain-grace", "drain_grace", 5.0),
        ("--metrics-json", "metrics_json", None),
        ("--metrics-interval", "metrics_interval", 2.0),
        ("--sanitize", "sanitize", False),
        ("--journal", "journal", None),
        ("--journal-fsync", "journal_fsync", 0.0),
        ("--journal-compact-every", "journal_compact_every", 1000),
        ("--lease-ttl", "lease_ttl", 10.0),
        ("--lease-check", "lease_check", 0.25),
        ("--predict", "predict", False),
        ("--predict-error-band", "predict_error_band", 0.25),
        ("--predict-min-samples", "predict_min_samples", 3),
        ("--predict-history", "predict_history", 32),
        ("--predict-hysteresis", "predict_hysteresis", 2),
        ("--shards", "shards", 1),
        ("--placer-seed", "placer_seed", 0),
        ("--rebalance-fragmentation", "rebalance_fragmentation", 0.5),
        ("--no-supervise", "no_supervise", False),
    ],
    "place": [
        ("--socket", "socket", "repro-place.sock"),
        ("--shard", "shard", []),
        ("--seed", "seed", 0),
        ("--no-migration", "no_migration", False),
        ("--metrics-json", "metrics_json", None),
    ],
    "loadgen": [
        ("--socket", "socket", None),
        ("--host", "host", None),
        ("--port", "port", None),
        ("--workload", "workload", "fig4"),
        ("--mode", "mode", "closed"),
        ("--clients", "clients", 4),
        ("--rate", "rate", 20.0),
        ("--sessions", "sessions", None),
        ("--duration", "duration", None),
        ("--time-scale", "time_scale", None),
        ("--seed", "seed", 0),
        ("--json", "json", False),
        ("--drain", "drain", False),
        ("--resilient", "resilient", False),
        ("--binary", "binary", False),
        ("--cluster", "cluster", False),
        ("--overdeclare", "overdeclare", 1.0),
        ("--observe", "observe", False),
        ("--backoff-cap", "backoff_cap", None),
        ("--breaker-threshold", "breaker_threshold", None),
        ("--breaker-reset", "breaker_reset", 1.0),
    ],
    "chaos": [
        ("--seed", "seed", 0),
        ("--duration", "duration", 6.0),
        ("--clients", "clients", 4),
        ("--kills", "kills", 2),
        ("--kill-interval", "kill_interval", 1.5),
        ("--policy", "policy", "strict"),
        ("--capacity-mb", "capacity_mb", 8.0),
        ("--lease-ttl", "lease_ttl", 1.5),
        ("--workdir", "workdir", None),
        ("--json", "json", False),
        ("--cluster", "cluster", False),
        ("--shards", "shards", 3),
        ("--supervise", "supervise", False),
        ("--rolling", "rolling", False),
        ("--rolling-grace", "rolling_grace", 3.0),
        ("--overload", "overload", False),
        ("--storm-rate", "storm_rate", 150.0),
        ("--slowloris", "slowloris", 2),
        ("--p99-bound", "p99_bound", 5.0),
        ("--backoff-cap", "backoff_cap", None),
        ("--breaker-threshold", "breaker_threshold", None),
        ("--breaker-reset", "breaker_reset", 0.2),
    ],
    "sweep": [
        ("--workloads", "workloads", (
            "BLAS-1", "BLAS-2", "BLAS-3", "Water_sp", "Water_nsq",
            "Ocean_cp", "Raytrace", "Volrend",
        )),
        ("--chart", "chart", False),
        ("--jobs", "jobs", 1),
        ("--cache-dir", "cache_dir", ".repro-cache"),
        ("--no-cache", "no_cache", False),
        ("--timeout", "timeout", None),
        ("--progress", "progress", False),
    ],
    "bench": [
        ("--quick", "quick", False),
        ("--seed", "seed", 1234),
        ("--out-dir", "out_dir", "."),
        ("--areas", "areas", (
            "sim", "serve", "fleet", "cluster", "serve_overload",
            "serve_predict", "mem", "profiler",
        )),
        ("--cache-dir", "cache_dir", ".repro-cache"),
        ("--jobs", "jobs", None),
        ("--compare-to", "compare_to", None),
        ("--tolerance", "tolerance", 0.3),
    ],
    "fig": [
        ("--chart", "chart", False),
        ("--jobs", "jobs", 1),
        ("--cache-dir", "cache_dir", ".repro-cache"),
        ("--no-cache", "no_cache", False),
        ("--timeout", "timeout", None),
        ("--progress", "progress", False),
    ],
}

#: positional arguments, and the values that satisfy them when parsing
POSITIONALS = {"run": ["BLAS-1"], "fig": ["11"]}

#: flag counts per subcommand (an action with two option strings, like
#: ``-v``/``--verbose``, is one flag)
FLAG_COUNTS = {"serve": 31, "place": 5, "loadgen": 21, "chaos": 22}

#: the subcommands whose flags each config declares
COMMANDS = {
    ServeConfig: ("serve",),
    ClusterConfig: ("place", "serve"),
    LoadgenConfig: ("loadgen",),
    ChaosConfig: ("chaos",),
}

#: numeric fields for which 0 is a value with a meaning (no wait, no
#: fsync batching, no kills, no faults of one kind ...)
ZERO_OK = {
    (ServeConfig, "drain_grace_s"),
    (ServeConfig, "journal_fsync_s"),
    (ServeConfig, "predict_floor_frac"),
    (ClusterConfig, "migrate_after_s"),
    (ClusterConfig, "brownout_fragmentation"),
    (ClusterConfig, "crash_loop_window_s"),
    (ClusterConfig, "shard_drain_grace_s"),
    (LoadgenConfig, "time_scale"),
    (LoadgenConfig, "max_hold_s"),
    (LoadgenConfig, "max_retries"),
    (ChaosConfig, "kills"),
    (ChaosConfig, "kill_interval_s"),
    (ChaosConfig, "drop_rate"),
    (ChaosConfig, "delay_rate"),
    (ChaosConfig, "delay_max_s"),
    (ChaosConfig, "duplicate_rate"),
    (ChaosConfig, "truncate_rate"),
    (ChaosConfig, "sever_rate"),
    (ChaosConfig, "hold_s"),
    (ChaosConfig, "journal_fsync_s"),
    (ChaosConfig, "slowloris"),
}

#: probabilities and ratios that lie in [0, 1]
UNIT_RANGE = {
    (ServeConfig, "predict_floor_frac"),
    (ClusterConfig, "brownout_fragmentation"),
    (ChaosConfig, "drop_rate"),
    (ChaosConfig, "delay_rate"),
    (ChaosConfig, "duplicate_rate"),
    (ChaosConfig, "truncate_rate"),
    (ChaosConfig, "sever_rate"),
}

#: seeds take any integer
SEEDS = {(ClusterConfig, "seed"), (LoadgenConfig, "seed"), (ChaosConfig, "seed")}

NUMERIC = ("int", "float", "Optional[int]", "Optional[float]")


def subparsers():
    parser = build_parser()
    action = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return parser, action.choices


def flags(subparser):
    return [
        a for a in subparser._actions
        if not isinstance(a, argparse._HelpAction)
    ]


def test_every_flag_keeps_its_name_dest_and_default():
    parser, commands = subparsers()
    assert sorted(commands) == sorted(INVENTORY)
    total = 0
    for name, subparser in commands.items():
        args = parser.parse_args([name, *POSITIONALS.get(name, [])])
        rows = {
            option: (a.dest, getattr(args, a.dest))
            for a in flags(subparser) for option in a.option_strings
        }
        assert rows == {
            option: (dest, default) for option, dest, default in INVENTORY[name]
        }, name
        positionals = [a.dest for a in flags(subparser) if not a.option_strings]
        assert len(positionals) == len(POSITIONALS.get(name, [])), name
        total += len(flags(subparser))
        if name in FLAG_COUNTS:
            assert len(flags(subparser)) == FLAG_COUNTS[name], name
    assert total == 112


def test_each_config_keeps_its_fields():
    counts = {cls: len(fields(cls)) for cls in COMMANDS}
    assert counts == {
        ServeConfig: 28, ClusterConfig: 22, LoadgenConfig: 22, ChaosConfig: 36,
    }


def test_a_flags_default_is_its_fields_default():
    parser = build_parser()
    assert from_args(
        ServeConfig, parser.parse_args(["serve"]), policy=None
    ) == ServeConfig()
    assert from_args(ClusterConfig, parser.parse_args(["place"])) == ClusterConfig()
    assert from_args(
        LoadgenConfig, parser.parse_args(["loadgen"]), time_scale=1e-4
    ) == LoadgenConfig()
    assert from_args(ChaosConfig, parser.parse_args(["chaos"])) == ChaosConfig()


def test_switches_flip_their_fields_default():
    parser = build_parser()
    cfg = from_args(ClusterConfig, parser.parse_args(["place", "--no-migration"]))
    assert cfg.migration is False
    cfg = from_args(
        LoadgenConfig,
        parser.parse_args(["loadgen", "--observe", "--mode", "open"]),
    )
    assert cfg.report_observed is True and cfg.mode == "open"
    cfg = from_args(
        ServeConfig, parser.parse_args(["serve", "--fifo", "--park-timeout", "2"]),
        policy=None,
    )
    assert cfg.strict_fifo is True and cfg.park_timeout_s == 2.0


def bad_values(cls, name):
    """The out-of-bound values of one numeric field."""
    values = [math.nan]
    if (cls, name) not in SEEDS:
        values.append(-1)
        if (cls, name) not in ZERO_OK:
            values.append(0)
    if (cls, name) in UNIT_RANGE:
        values.append(1.5)
    return values


NUMERIC_FIELDS = [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in COMMANDS for f in fields(cls) if f.type in NUMERIC
]


def command_line(command, tmp_path, flag, value):
    """``command`` with one flag set to ``value``; every endpoint lies in
    a missing directory, so a value that got past the parser fails to
    bind or connect instead of exiting 2."""
    missing = tmp_path / "missing"
    endpoint = {
        "serve": ["--socket", str(missing / "serve.sock")],
        "place": [
            "--socket", str(missing / "place.sock"),
            "--shard", f"s0={missing / 's0.sock'}",
        ],
        "loadgen": ["--socket", str(missing / "loadgen.sock")],
        "chaos": ["--workdir", str(missing)],
    }[command]
    return [command, *endpoint, flag, str(value)]


@pytest.mark.parametrize("cls, name", NUMERIC_FIELDS)
def test_out_of_bound_values_are_refused_by_api_and_cli(
    cls, name, tmp_path, capsys
):
    flag = next(f for f in fields(cls) if f.name == name).metadata.get("flag")
    _, commands = subparsers()
    carriers = [
        c for c in COMMANDS[cls]
        if flag in {o for a in flags(commands[c]) for o in a.option_strings}
    ]
    assert (flag is None) == (carriers == [])
    for value in bad_values(cls, name):
        with pytest.raises(ConfigError, match=name):
            cls(**{name: value})
        for command in carriers:
            with pytest.raises(SystemExit) as exc:
                main(command_line(command, tmp_path, flag, value))
            assert exc.value.code == 2, (command, flag, value)
    assert "Traceback" not in capsys.readouterr().err


def test_serve_placer_seed_is_any_integer_but_not_nan(tmp_path):
    args = build_parser().parse_args(["serve", "--placer-seed", "-7"])
    assert args.placer_seed == -7
    with pytest.raises(SystemExit) as exc:
        main(command_line("serve", tmp_path, "--placer-seed", "nan"))
    assert exc.value.code == 2


def test_seeds_stay_any_integer():
    parser = build_parser()
    for argv in (
        ["sanitize"], ["bench"], ["place"], ["loadgen"], ["chaos"],
    ):
        assert parser.parse_args([*argv, "--seed", "-5"]).seed == -5
    for cls in (ClusterConfig, LoadgenConfig, ChaosConfig):
        assert cls(seed=-5).seed == -5


def test_none_passes_only_where_the_field_is_optional():
    # None stays the API's "park until admitted, drained or disconnected"
    assert ServeConfig(park_timeout_s=None).park_timeout_s is None
    with pytest.raises(ConfigError, match="max_pending"):
        ServeConfig(max_pending=None)
    with pytest.raises(ConfigError, match="clients"):
        LoadgenConfig(clients=2.5)  # an int field, as --clients 2.5 is refused


@pytest.mark.parametrize("kwargs", [
    {"predict_history": 1},
    {"predict_min_samples": 1},
    {"predict_min_samples": 40},  # above the default history of 32
    {"predict_history": 4, "predict_min_samples": 5},
])
def test_estimator_rule_is_checked_by_the_api(kwargs):
    with pytest.raises(ConfigError, match="--predict-"):
        ServeConfig(**kwargs)


def test_choices_are_checked_by_the_api():
    with pytest.raises(ConfigError, match="mode"):
        LoadgenConfig(mode="sideways")
    with pytest.raises(ConfigError, match="kind"):
        ChaosConfig(kind="meteor")
