"""CLI tests."""

import argparse

import pytest

from repro import cliutil
from repro.cli import build_parser, main, policy_by_name
from repro.core.policy import CompromisePolicy, StrictPolicy


class TestPolicyParsing:
    def test_default_aliases(self):
        for name in ("default", "linux", "none", "DEFAULT"):
            assert policy_by_name(name) is None

    def test_strict(self):
        assert isinstance(policy_by_name("strict"), StrictPolicy)

    def test_compromise_default_factor(self):
        p = policy_by_name("compromise")
        assert isinstance(p, CompromisePolicy)
        assert p.oversubscription == 2.0

    def test_compromise_custom_factor(self):
        assert policy_by_name("compromise:1.5").oversubscription == 1.5

    def test_unknown_policy(self):
        with pytest.raises(argparse.ArgumentTypeError):
            policy_by_name("fifo")


class TestParser:
    def test_commands_exist(self):
        parser = build_parser()
        for argv in (["table1"], ["table2"], ["run", "BLAS-1"], ["sweep"], ["fig", "11"]):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_run_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "PARSEC"])

    def test_fig_rejects_unknown_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "7"])  # 7-10 come from `sweep`

    def test_grid_options_on_sweep_and_fig(self):
        parser = build_parser()
        args = parser.parse_args(
            ["sweep", "--jobs", "4", "--cache-dir", "/tmp/c", "--timeout", "30"]
        )
        assert args.jobs == 4 and args.cache_dir == "/tmp/c"
        assert args.timeout == 30.0 and not args.no_cache
        args = parser.parse_args(["fig", "11", "--jobs", "2", "--no-cache"])
        assert args.jobs == 2 and args.no_cache

    def test_cache_enabled_by_default(self):
        from repro.experiments.parallel import DEFAULT_CACHE_DIR

        args = build_parser().parse_args(["sweep"])
        assert args.jobs == 1 and args.cache_dir == DEFAULT_CACHE_DIR

    def test_sanitize_fleet_options(self):
        args = build_parser().parse_args(
            ["sanitize", "--jobs", "4", "--timeout", "10", "--progress"]
        )
        assert args.jobs == 4 and args.timeout == 10.0 and args.progress
        args = build_parser().parse_args(["sanitize"])
        assert args.jobs == 1 and args.timeout is None and not args.progress

    def test_serve_options(self):
        args = build_parser().parse_args(
            [
                "serve", "--policy", "compromise:1.5", "--fifo",
                "--capacity-mb", "4", "--max-pending", "8",
                "--park-timeout", "2", "--sanitize",
                "--socket", "/tmp/rda.sock",
            ]
        )
        assert args.command == "serve"
        assert args.policy.oversubscription == 1.5
        assert args.fifo and args.sanitize
        assert args.capacity_mb == 4.0 and args.max_pending == 8
        assert args.park_timeout == 2.0 and args.socket == "/tmp/rda.sock"

    def test_loadgen_options(self):
        args = build_parser().parse_args(
            [
                "loadgen", "--socket", "/tmp/rda.sock",
                "--workload", "Water_nsq", "--mode", "open",
                "--rate", "50", "--sessions", "10", "--drain", "--json",
            ]
        )
        assert args.command == "loadgen"
        assert args.workload == "Water_nsq" and args.mode == "open"
        assert args.rate == 50.0 and args.sessions == 10
        assert args.drain and args.json

    def test_loadgen_rejects_bad_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen", "--mode", "sideways"])


class TestExecution:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "E5-2420" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Water_nsq" in out and "procs=12" in out

    def test_run_small_workload(self, capsys):
        assert main(["run", "Water_nsq", "--policy", "strict"]) == 0
        out = capsys.readouterr().out
        assert "GFLOPS" in out and "RDA: Strict" in out

    def test_fig11(self, capsys):
        assert main(["fig", "11", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "overhead" in out

    def test_sweep_parallel_with_warm_cache(self, capsys, tmp_path):
        argv = [
            "sweep", "--workloads", "Water_sp",
            "--jobs", "2", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "# grid: 3 runs — 3 executed, 0 cached, 0 failed" in cold
        # second invocation: every run served from cache, zero simulations
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "# grid: 3 runs — 0 executed, 3 cached, 0 failed" in warm
        # the figures themselves are identical either way
        assert [l for l in warm.splitlines() if "Water_sp" in l] == [
            l for l in cold.splitlines() if "Water_sp" in l
        ]

    def test_loadgen_requires_an_endpoint(self, capsys):
        assert main(["loadgen"]) == 2
        assert "--socket or --host" in capsys.readouterr().err

    def test_loadgen_rejects_unknown_workload(self, capsys):
        assert main(["loadgen", "--socket", "/tmp/x.sock", "--workload", "PARSEC"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_loadgen_reports_unreachable_server(self, capsys, tmp_path):
        sock = str(tmp_path / "absent.sock")
        assert main(["loadgen", "--socket", sock, "--sessions", "1"]) == 1
        assert "loadgen:" in capsys.readouterr().err


class TestOverloadFlags:
    def test_serve_overload_knobs_parse_and_default_off(self):
        parser = build_parser()
        args = parser.parse_args(["serve"])
        assert args.park_timeout == 30.0
        assert args.retry_hint_floor == 0.05 and args.retry_hint_cap == 0.05
        assert args.max_pending_per_client is None
        assert args.write_timeout is None
        args = parser.parse_args([
            "serve", "--park-timeout", "0.5", "--retry-hint-floor", "0.05",
            "--retry-hint-cap", "2.0", "--max-pending-per-client", "2",
            "--write-timeout", "1.0",
        ])
        assert args.park_timeout == 0.5 and args.retry_hint_floor == 0.05
        assert args.retry_hint_cap == 2.0
        assert args.max_pending_per_client == 2 and args.write_timeout == 1.0

    def test_breaker_and_backoff_flags_on_loadgen_and_chaos(self):
        parser = build_parser()
        for cmd in (["loadgen"], ["chaos"]):
            args = parser.parse_args(cmd + [
                "--backoff-cap", "0.5", "--breaker-threshold", "3",
                "--breaker-reset", "0.1",
            ])
            assert args.backoff_cap == 0.5
            assert args.breaker_threshold == 3 and args.breaker_reset == 0.1

    @pytest.mark.parametrize("argv", [
        ["serve", "--park-timeout", "0"],
        ["serve", "--retry-hint-floor", "-1"],
        ["serve", "--max-pending-per-client", "0"],
        ["serve", "--write-timeout", "nope"],
        ["loadgen", "--backoff-cap", "-0.5"],
        ["loadgen", "--breaker-threshold", "0"],
        ["chaos", "--breaker-reset", "0"],
        ["chaos", "--storm-rate", "-5"],
        ["serve", "--park-timeout", "-1"],
        ["serve", "--park-timeout", "nan"],
        ["serve", "--write-timeout", "nan"],
        ["serve", "--idle-timeout", "0"],
        ["serve", "--lease-ttl", "0"],
        ["serve", "--lease-check", "0"],
        ["serve", "--metrics-interval", "0"],
        ["serve", "--max-pending", "0"],
        ["serve", "--drain-grace", "nan"],
        ["serve", "--drain-grace", "-1"],
        ["serve", "--shards", "0"],
        ["serve", "--shards", "-3"],
        ["serve", "--journal-fsync", "-1"],
        ["serve", "--journal", "J", "--journal-compact-every", "0"],
        ["chaos", "--shards", "0"],
        ["chaos", "--kills", "-1"],
        ["chaos", "--duration", "-1"],
        ["chaos", "--clients", "0"],
        ["chaos", "--kill-interval", "-1"],
        ["chaos", "--slowloris", "-3"],
        ["chaos", "--capacity-mb", "0"],
        ["chaos", "--capacity-mb", "inf"],
        ["chaos", "--lease-ttl", "0"],
        ["loadgen", "--clients", "0"],
        ["loadgen", "--sessions", "-5"],
        ["loadgen", "--rate", "-2"],
        ["loadgen", "--duration", "nan"],
        ["loadgen", "--port", "0"],
        ["loadgen", "--time-scale", "-1"],
        ["serve", "--port", "-1"],
        ["serve", "--port", "65536"],
        ["serve", "--port", "70000"],
        ["loadgen", "--port", "-1"],
        ["loadgen", "--port", "65536"],
        ["loadgen", "--port", "70000"],
        ["serve", "--capacity-mb", "nan"],
        ["serve", "--capacity-mb", "inf"],
        ["serve", "--capacity-mb", "0"],
        ["serve", "--capacity-mb", "-4"],
        ["sanitize", "--runs", "-3"],
        ["sanitize", "--runs", "0"],
        ["sanitize", "--jobs", "0"],
        ["sanitize", "--time-budget", "0"],
        ["sanitize", "--timeout", "nan"],
        ["sweep", "--jobs", "-2"],
        ["sweep", "--timeout", "0"],
        ["fig", "11", "--jobs", "0"],
        ["fig", "11", "--timeout", "-1"],
        ["bench", "--jobs", "0"],
        ["bench", "--tolerance", "nan"],
        ["bench", "--tolerance", "-0.1"],
        ["bench", "--tolerance", "1"],
    ])
    def test_nonpositive_tuning_values_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_chaos_zero_counts_mean_none(self, capsys):
        # 0 kills, 0 slow consumers, no gap and no hold scaling stay valid;
        # a negative one is a usage error (exit 2) before any server starts
        args = build_parser().parse_args([
            "chaos", "--kills", "0", "--slowloris", "0", "--kill-interval", "0",
        ])
        assert (args.kills, args.slowloris, args.kill_interval) == (0, 0, 0.0)
        args = build_parser().parse_args(["loadgen", "--time-scale", "0"])
        assert args.time_scale == 0.0
        for argv in (["chaos", "--kills", "-1"], ["chaos", "--slowloris", "-1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_chaos_overload_parses_and_excludes_cluster(self, capsys):
        args = build_parser().parse_args(["chaos", "--overload"])
        assert args.overload and args.storm_rate == 150.0
        assert args.slowloris == 2 and args.p99_bound == 5.0
        assert main(["chaos", "--overload", "--cluster"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestSharedValidators:
    """repro.cliutil: the validators shared by every subcommand."""

    def test_positive_float_accepts(self):
        assert cliutil.positive_float("0.5") == 0.5
        assert cliutil.positive_float("2") == 2.0

    @pytest.mark.parametrize("text", ["0", "-1.5", "nan?", "", "nan"])
    def test_positive_float_rejects(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            cliutil.positive_float(text)

    def test_positive_int_accepts(self):
        assert cliutil.positive_int("3") == 3

    def test_non_negative_float_accepts(self):
        # zero keeps its meaning (e.g. --journal-fsync 0: fsync per event)
        assert cliutil.non_negative_float("0") == 0.0
        assert cliutil.non_negative_float("0.05") == 0.05
        assert cliutil.non_negative_float("5") == 5.0

    @pytest.mark.parametrize("text", ["-1", "-0.001", "nan", "x", ""])
    def test_non_negative_float_rejects(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            cliutil.non_negative_float(text)

    @pytest.mark.parametrize("text", ["0", "-2", "1.5", "x"])
    def test_positive_int_rejects(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            cliutil.positive_int(text)

    def test_non_negative_int_accepts(self):
        # zero keeps its meaning (e.g. chaos --kills 0: no kills)
        assert cliutil.non_negative_int("0") == 0
        assert cliutil.non_negative_int("3") == 3

    @pytest.mark.parametrize("text", ["-1", "1.5", "nan", "x", ""])
    def test_non_negative_int_rejects(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            cliutil.non_negative_int(text)


class TestPredictFlags:
    def test_serve_predict_flags_parse_and_default_off(self):
        parser = build_parser()
        args = parser.parse_args(["serve"])
        assert args.predict is False
        assert args.predict_error_band == 0.25
        assert args.predict_min_samples == 3
        assert args.predict_history == 32
        assert args.predict_hysteresis == 2
        args = parser.parse_args([
            "serve", "--predict", "--predict-error-band", "0.1",
            "--predict-min-samples", "5", "--predict-history", "16",
            "--predict-hysteresis", "4",
        ])
        assert args.predict is True and args.predict_error_band == 0.1
        assert args.predict_min_samples == 5 and args.predict_history == 16
        assert args.predict_hysteresis == 4

    def test_loadgen_overdeclare_and_observe(self):
        parser = build_parser()
        args = parser.parse_args(["loadgen"])
        assert args.overdeclare == 1.0 and args.observe is False
        args = parser.parse_args(["loadgen", "--overdeclare", "2", "--observe"])
        assert args.overdeclare == 2.0 and args.observe is True

    @pytest.mark.parametrize("argv", [
        ["serve", "--predict-error-band", "0"],
        ["serve", "--predict-min-samples", "-1"],
        ["serve", "--predict-history", "0"],
        ["serve", "--predict-hysteresis", "1.5"],
        ["loadgen", "--overdeclare", "0"],
        ["loadgen", "--overdeclare", "-2"],
    ])
    def test_invalid_predict_values_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    @pytest.mark.parametrize("flags", [
        ["--predict-history", "1"],
        ["--predict-min-samples", "1"],
        ["--predict-min-samples", "40"],  # above the default history of 32
        ["--predict-history", "4", "--predict-min-samples", "5"],
    ])
    def test_estimator_settings_are_usage_errors(self, flags, tmp_path,
                                                 capsys):
        # binding inside a missing directory would fail: the check must
        # come first
        sock = tmp_path / "missing" / "serve.sock"
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--predict", "--socket", str(sock), *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--predict-" in err


class TestRangeEdges:
    """Ports, capacities and fractions: the edges parse, past them exits 2."""

    def test_values_at_the_edges_parse(self):
        parser = build_parser()
        assert parser.parse_args(["serve", "--port", "0"]).port == 0
        assert parser.parse_args(["serve", "--port", "65535"]).port == 65535
        assert parser.parse_args(["loadgen", "--port", "1"]).port == 1
        assert parser.parse_args(["loadgen", "--port", "65535"]).port == 65535
        assert parser.parse_args(["serve", "--capacity-mb", "0.5"]).capacity_mb == 0.5
        assert parser.parse_args(["bench", "--tolerance", "0"]).tolerance == 0.0
        assert parser.parse_args(["bench", "--tolerance", "0.99"]).tolerance == 0.99

    @pytest.mark.parametrize("command", ["serve", "loadgen"])
    def test_a_port_out_of_range_exits_2_before_anything_binds(
        self, command, tmp_path, capsys
    ):
        # a socket in a missing directory: a port that got past the parser
        # would fail to bind or connect, not serve
        sock = str(tmp_path / "missing" / "s.sock")
        with pytest.raises(SystemExit) as exc:
            main([command, "--socket", sock, "--port", "70000"])
        assert exc.value.code == 2
        assert "must be a port" in capsys.readouterr().err
