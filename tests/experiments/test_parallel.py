"""Parallel experiment fleet: run keys, result cache, fan-out, failures.

The crash and timeout tests monkeypatch ``parallel._execute``; worker
processes are forked on Linux, so the patched module state is inherited by
the children.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import pytest

from repro.config import CpuConfig, MachineConfig
from repro.core.policy import CompromisePolicy, StrictPolicy
from repro.errors import ReproError
from repro.experiments import parallel
from repro.experiments.parallel import (
    ProgressEvent,
    ResultCache,
    RunFailure,
    RunRequest,
    RunSuccess,
    run_grid,
    run_key,
)
from repro.experiments.sweep import sweep
from repro.perf.stat import PerfReport
from repro.experiments.store import report_from_dict, report_to_full_dict

from ..conftest import make_phase, make_workload


def tiny_workload(n_processes: int = 2, wss_mb: float = 0.3):
    return make_workload(
        n_processes=n_processes,
        phases=[make_phase(instructions=200_000, wss_mb=wss_mb)],
    )


def tiny_requests():
    wl = tiny_workload()
    return [
        RunRequest(workload=wl, policy=policy)
        for policy in (None, StrictPolicy(), CompromisePolicy())
    ]


# ----------------------------------------------------------------------
# Run keys
# ----------------------------------------------------------------------
class TestRunKey:
    def test_stable_across_calls(self):
        a = RunRequest(workload=tiny_workload(), policy=StrictPolicy(), seed=3)
        b = RunRequest(workload=tiny_workload(), policy=StrictPolicy(), seed=3)
        assert run_key(a) == run_key(b)
        assert len(run_key(a)) == 64

    def test_policy_changes_key(self):
        wl = tiny_workload()
        keys = {
            run_key(RunRequest(workload=wl, policy=p))
            for p in (None, StrictPolicy(), CompromisePolicy(),
                      CompromisePolicy(oversubscription=1.5))
        }
        assert len(keys) == 4

    def test_workload_spec_changes_key(self):
        base = RunRequest(workload=tiny_workload(wss_mb=0.3))
        grown = RunRequest(workload=tiny_workload(wss_mb=0.4))
        assert run_key(base) != run_key(grown)

    def test_config_changes_key(self):
        wl = tiny_workload()
        default = RunRequest(workload=wl)
        explicit = RunRequest(workload=wl, config=MachineConfig())
        eight_core = RunRequest(
            workload=wl, config=MachineConfig(cpu=CpuConfig(n_cores=8))
        )
        assert run_key(explicit) != run_key(eight_core)
        # None means "the committed default", hashed distinctly from an
        # explicitly pinned equal config
        assert run_key(default) != run_key(explicit)

    def test_seed_offsets_budget_and_sanitize_change_key(self):
        wl = tiny_workload()
        base = RunRequest(workload=wl)
        assert run_key(base) != run_key(replace(base, seed=1))
        assert run_key(base) != run_key(
            replace(base, arrival_offsets=(0.0, 1e-3))
        )
        assert run_key(base) != run_key(replace(base, max_events=10))
        assert run_key(base) != run_key(replace(base, sanitize=True))

    def test_tag_is_presentation_only(self):
        wl = tiny_workload()
        assert run_key(RunRequest(workload=wl, tag="a")) == run_key(
            RunRequest(workload=wl, tag="b")
        )


# ----------------------------------------------------------------------
# Cache round-trip
# ----------------------------------------------------------------------
def _report(**overrides) -> PerfReport:
    values = dict(
        wall_s=1.2345678901234567,
        instructions=1e9,
        cycles=2e9,
        flops=3.3e8,
        llc_refs=1e7,
        llc_misses=2.5e6,
        context_switches=42.0,
        pp_begin_calls=7.0,
        pp_denials=1.0,
        package_j=17.25,
        dram_j=3.125,
    )
    values.update(overrides)
    return PerfReport(**values)


class TestReportRoundTrip:
    def test_full_dict_round_trips_exactly(self):
        report = _report()
        assert report_from_dict(report_to_full_dict(report)) == report

    def test_rejects_missing_and_extra_fields(self):
        data = report_to_full_dict(_report())
        data.pop("cycles")
        with pytest.raises(ReproError, match="cycles"):
            report_from_dict(data)
        data = report_to_full_dict(_report())
        data["bogus"] = 1.0
        with pytest.raises(ReproError, match="bogus"):
            report_from_dict(data)


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = RunRequest(workload=tiny_workload())
        key = run_key(request)
        report = _report()
        path = cache.put(key, report, request)
        assert path.exists() and path.parent.name == key[:2]
        assert cache.get(key) == report
        assert len(cache) == 1

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("0" * 64) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = RunRequest(workload=tiny_workload())
        key = run_key(request)
        cache.put(key, _report(), request)
        cache.path(key).write_text("{not json")
        assert cache.get(key) is None


# ----------------------------------------------------------------------
# Grid execution
# ----------------------------------------------------------------------
class TestRunGrid:
    def test_serial_executes_all(self, tmp_path):
        outcomes = run_grid(tiny_requests(), jobs=1, cache=tmp_path)
        assert [o.ok for o in outcomes] == [True] * 3
        assert all(isinstance(o, RunSuccess) and not o.cached for o in outcomes)

    def test_parallel_equals_serial_key_for_key(self):
        requests = tiny_requests()
        serial = run_grid(requests, jobs=1)
        fleet = run_grid(requests, jobs=3)
        for a, b in zip(serial, fleet):
            assert a.key == b.key
            assert a.report == b.report  # every field, exact

    def test_warm_cache_runs_zero_simulations(self, tmp_path, monkeypatch):
        requests = tiny_requests()
        cold = run_grid(requests, jobs=1, cache=tmp_path)
        # a second invocation must not simulate at all — break the executor
        # so any attempt to run is loud
        monkeypatch.setattr(
            parallel, "_execute", lambda request: pytest.fail("simulated again")
        )
        warm = run_grid(requests, jobs=2, cache=tmp_path)
        assert all(o.cached for o in warm)
        for a, b in zip(cold, warm):
            assert a.key == b.key and a.report == b.report

    def test_outcomes_preserve_request_order(self):
        requests = tiny_requests()
        outcomes = run_grid(requests, jobs=2)
        assert [o.request.policy_name for o in outcomes] == [
            r.policy_name for r in requests
        ]

    def test_exception_becomes_error_record_and_grid_completes(self, tmp_path):
        good = tiny_requests()[0]
        bad = replace(good, max_events=2)  # trips the livelock valve
        outcomes = run_grid([bad, good, bad], jobs=2, cache=tmp_path)
        assert [o.ok for o in outcomes] == [False, True, False]
        assert outcomes[0].kind == "error"
        assert "max_events" in outcomes[0].message
        # failures are never cached
        assert ResultCache(tmp_path).get(outcomes[0].key) is None
        assert ResultCache(tmp_path).get(outcomes[1].key) is not None

    def test_worker_crash_is_isolated(self, monkeypatch):
        real_execute = parallel._execute

        def crashy(request):
            if request.policy is None:
                os._exit(13)  # simulated segfault: no exception, no result
            return real_execute(request)

        monkeypatch.setattr(parallel, "_execute", crashy)
        outcomes = run_grid(tiny_requests(), jobs=2)
        assert [o.ok for o in outcomes] == [False, True, True]
        assert outcomes[0].kind == "crash"
        assert "code 13" in outcomes[0].message

    def test_per_run_timeout_terminates_worker(self, monkeypatch):
        real_execute = parallel._execute

        def sleepy(request):
            if request.policy is None:
                time.sleep(60)
            return real_execute(request)

        monkeypatch.setattr(parallel, "_execute", sleepy)
        t0 = time.monotonic()
        outcomes = run_grid(tiny_requests(), jobs=3, timeout_s=0.5)
        assert time.monotonic() - t0 < 30
        assert [o.ok for o in outcomes] == [False, True, True]
        assert outcomes[0].kind == "timeout"

    def test_rejects_bad_job_count(self):
        with pytest.raises(ReproError):
            run_grid(tiny_requests(), jobs=0)

    def test_progress_events(self):
        events: list[ProgressEvent] = []
        run_grid(tiny_requests(), jobs=1, progress=events.append)
        assert len(events) == 3
        assert events[-1].done == events[-1].total == 3
        assert events[-1].executed == 3
        assert events[-1].cached == events[-1].failed == 0
        assert all(isinstance(e.outcome, (RunSuccess, RunFailure)) for e in events)


class _SlowFirstPoll:
    """A parent pipe end whose first empty ``poll()`` answers late."""

    def __init__(self, conn):
        self._conn = conn
        self._first = True

    def poll(self, *args):
        ready = self._conn.poll(*args)
        if self._first and not ready:
            self._first = False
            time.sleep(0.5)  # the worker sends and exits meanwhile
        return ready

    def __getattr__(self, name):
        return getattr(self._conn, name)


class _SlowPollContext:
    def __init__(self, real):
        self._real = real

    def Pipe(self, duplex=True):
        parent, child = self._real.Pipe(duplex=duplex)
        return _SlowFirstPoll(parent), child

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestFanOutSettle:
    def test_worker_exiting_after_an_empty_poll_is_not_a_crash(self, monkeypatch):
        real_get_context = parallel.multiprocessing.get_context
        monkeypatch.setattr(
            parallel.multiprocessing, "get_context",
            lambda *args: _SlowPollContext(real_get_context(*args)),
        )

        def answer(_payload):
            time.sleep(0.1)
            return 42

        [outcome] = parallel.fan_out(answer, [None], jobs=1)
        assert (outcome.status, outcome.result) == ("ok", 42), outcome.message


# ----------------------------------------------------------------------
# Determinism across the public sweep API (the acceptance criterion)
# ----------------------------------------------------------------------
class TestSweepDeterminism:
    def test_jobs_n_equals_jobs_1_key_for_key(self):
        def build(wss_mb):
            return tiny_workload(wss_mb=wss_mb)

        factors = {
            "policy": ["default", "strict"],
            "wss_mb": [0.2, 0.4],
        }
        serial = sweep(build, factors, jobs=1)
        fleet = sweep(build, factors, jobs=2)
        assert serial == fleet  # every row, every metric, exact

    def test_sweep_reads_cache_across_invocations(self, tmp_path, monkeypatch):
        factors = {"policy": ["default", "strict"], "wss_mb": [0.2]}

        def build(wss_mb):
            return tiny_workload(wss_mb=wss_mb)

        first = sweep(build, factors, jobs=1, cache=tmp_path)
        monkeypatch.setattr(
            parallel, "_execute", lambda request: pytest.fail("simulated again")
        )
        second = sweep(build, factors, jobs=1, cache=tmp_path)
        assert first == second


# ----------------------------------------------------------------------
# The bench harness rides on the same cache
# ----------------------------------------------------------------------
class TestBenchFleetCache:
    def test_warm_bench_runs_zero_simulations_and_matches(
        self, tmp_path, monkeypatch
    ):
        """A second `repro bench` fleet pass must be pure cache reuse: zero
        simulations executed, and every deterministic record (digest,
        runs_total, failures, gflops_total) identical to the cold pass."""
        from repro.bench.areas import bench_fleet

        cache_dir = str(tmp_path / "bench-cache")
        cold = {r.metric: r for r in bench_fleet(7, cache_dir=cache_dir)}
        monkeypatch.setattr(
            parallel, "_execute", lambda request: pytest.fail("simulated again")
        )
        warm = {r.metric: r for r in bench_fleet(7, cache_dir=cache_dir)}

        assert set(cold) == set(warm)
        for metric, a in cold.items():
            b = warm[metric]
            assert a.config_digest == b.config_digest
            assert a.seed == b.seed == 7
            if not (a.unit.endswith("/s") or a.unit == "s"):
                # counts and totals are simulation outputs — exact reuse
                assert a.value == b.value, metric
        assert cold["failures"].value == 0.0


class TestBenchFleetCold:
    def test_no_cache_dir_executes_every_run_each_time(
        self, tmp_path, monkeypatch
    ):
        """With no cache directory, each fleet pass times cold execution:
        a second call executes every run again, and nothing is left in
        the working directory."""
        from repro.bench.areas import _fleet_requests, bench_fleet

        monkeypatch.chdir(tmp_path)
        executed = []
        execute = parallel._execute

        def counting(request):
            executed.append(request)
            return execute(request)

        monkeypatch.setattr(parallel, "_execute", counting)
        runs = len(_fleet_requests(7))
        for calls in (1, 2):
            records = {r.metric: r for r in bench_fleet(7, jobs=1)}
            assert len(executed) == calls * runs
            assert records["runs_total"].value == runs
            assert records["failures"].value == 0.0
        assert list(tmp_path.iterdir()) == []
