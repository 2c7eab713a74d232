"""Service workloads: the admission server in its own process.

``admit`` runs ``repro serve --policy strict`` with a fixed capacity and
nothing else: no journal, no prediction, one shard.  Two persistent
connections replay a demand mix exported from the Table 2 workloads.

``admit_durable`` runs the same mix against two journaled shards with
prediction on.  Sessions churn: each opens a connection to the
front-end, says ``hello`` with an id from a small pool, follows the
REDIRECT to its shard, runs ``SESSION_PERIODS`` periods that declare twice
their true working set and report ``observed_bytes``, and hangs up.

All load comes from this one process, over at most ``min(2, nproc)``
connections at a time.  Three phases share the measured window:

1. closed loop, zero hold: completed begin+end pairs per second;
2. open loop at one fixed Poisson rate with the mix's scripted holds:
   begin/end latency, each call timed from when it was due;
3. open loop, zero hold, over a ladder of rates: the highest rate whose
   ``pp_begin`` tail stays under the workload's limit without a growing
   backlog.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import echo
from common import (
    BENCH_DIR,
    OUT_DIR,
    HostSpeed,
    ROOT,
    Result,
    peak_rss_mb,
    proc_cpu_s,
    program_env,
)
from stats import MISS, crossing_rate, percentile, summarize

__all__ = ["SPECS", "run_service"]


@dataclass(frozen=True)
class ServiceSpec:
    durable: bool
    capacity_mb: float
    #: fixed open-loop rate (periods/s) for the latency phase
    fixed_rate: float
    #: pp_begin tail limit (ms) for the slo_rate search
    limit_ms: float


SPECS = {
    "admit": ServiceSpec(durable=False, capacity_mb=6.0, fixed_rate=200.0,
                         limit_ms=10.0),
    # capacity fits any one 2x over-declared period, so Strict never has
    # to force an oversized admission
    "admit_durable": ServiceSpec(durable=True, capacity_mb=12.0,
                                 fixed_rate=150.0, limit_ms=20.0),
}

#: scripted holds are simulated seconds; replayed at this fraction
HOLD_SCALE = 0.1
#: periods per churned session (admit_durable)
SESSION_PERIODS = 8
#: client-id pool per worker (admit_durable)
IDS_PER_WORKER = 2
#: wall_s of a service workload is the host time of this many closed-loop
#: begin+end pairs (so admissions_per_s = PAIRS_BATCH / wall_s)
PAIRS_BATCH = 1000
#: closed-loop measurement window
WINDOW_S = 0.5
#: set-up samples per run: probe servers plus the measured server
SETUP_PROBES = 5
#: rate ladder of the slo search, as fractions of closed-loop throughput
SLO_LADDER = (0.3, 0.45, 0.6, 0.75, 0.9, 1.05)
#: the last stretch before an arrival is spent yielding, not on a timer
SPIN_S = 0.0015
#: a call slower than this is abandoned and counted failed
CALL_TIMEOUT_S = 10.0
#: generator lateness above this share of the begin p50 distorts latency
LATE_SHARE = 0.5
#: round trips per echo round, and interpreter work per side of a trip
ECHO_TRIPS = 20
ECHO_WORK = 300
#: seconds of one echo round on the host the benchmark was built on, at
#: the moment the interpreter round took ``CAL_REF_S`` there
ECHO_REF_S = 0.0051


@dataclass(frozen=True)
class Call:
    demand: int
    reuse: str
    hold_s: float
    label: str


def demand_mix(seed: int) -> List[Call]:
    """A seeded permutation of the PP calls of every Table 2 workload."""
    import numpy as np
    from repro.workloads.export import export_pp_sequences
    from repro.workloads.suite import WORKLOAD_NAMES, workload_by_name

    calls = [
        Call(c.demand_bytes, c.reuse, c.hold_s * HOLD_SCALE, c.label)
        for name in WORKLOAD_NAMES
        for script in export_pp_sequences(workload_by_name(name), max_sessions=4)
        for c in script.calls
    ]
    order = np.random.default_rng([seed, 7]).permutation(len(calls))
    return [calls[i] for i in order]


# ----------------------------------------------------------------------
# server process
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``repro serve`` process (plain, or under the traced launcher)."""

    def __init__(self, spec: ServiceSpec, run_dir: str,
                 trace_out: Optional[str]) -> None:
        os.makedirs(run_dir, exist_ok=True)
        rel = os.path.relpath(run_dir, ROOT)
        # relative paths keep unix socket names short wherever the checkout is
        self.socket = os.path.join(rel, "s.sock")
        self.journal = os.path.join(rel, "j.log") if spec.durable else None
        args = ["serve", "--policy", "strict", "--capacity-mb",
                str(spec.capacity_mb), "--socket", self.socket]
        if spec.durable:
            args += ["--shards", "2", "--journal", self.journal,
                     "--journal-fsync", "0.05", "--predict"]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "serve_traced.py"),
                   "--trace-out", trace_out, "--", *args]
        self.log_path = os.path.join(run_dir, "server.log")
        self._log = open(self.log_path, "wb")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=program_env(), stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    def stop(self, timeout: float = 15.0) -> int:
        """SIGTERM (graceful drain), then SIGKILL past ``timeout``."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                return self.proc.wait()
        finally:
            self._log.close()

    def journals(self) -> List[str]:
        if self.journal is None:
            return []
        return [os.path.join(ROOT, f"{self.journal}.shard{i}") for i in range(2)]


class EchoPeer:
    """A benchmark-owned peer process answering JSON over a socket pair.

    A round of ``ECHO_TRIPS`` round trips, each with ``ECHO_WORK`` steps
    of interpreter work on both sides, costs the host what service calls
    cost it; see ``echo.py``.
    """

    def __init__(self) -> None:
        self.sock, theirs = socket.socketpair(socket.AF_UNIX,
                                              socket.SOCK_SEQPACKET)
        try:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(BENCH_DIR, "echo.py")],
                stdin=theirs, cwd=ROOT,
            )
        finally:
            theirs.close()

    def round(self) -> float:
        started = time.perf_counter()
        for i in range(ECHO_TRIPS):
            self.sock.sendall(json.dumps({
                "id": i, "n": ECHO_WORK, "op": "pp_begin", "resource": "llc",
                "demand_bytes": 1 << 20, "reuse": "high", "label": "echo",
            }).encode())
            if json.loads(self.sock.recv(65536))["id"] != i:
                raise RuntimeError("echo peer out of step")
            echo.work(ECHO_WORK)
        return time.perf_counter() - started

    def stop(self) -> None:
        self.sock.close()
        try:
            self.proc.wait(10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ----------------------------------------------------------------------
# load driver
# ----------------------------------------------------------------------
class _Broken(Exception):
    """A call failed on the transport; the session must be re-opened."""


class LoadShapeError(AssertionError):
    """The driver broke its own load contract (process or connections)."""


class Driver:
    """All load, from this process, over at most ``max_conns`` sockets."""

    def __init__(self, spec: ServiceSpec, server: ServerProcess,
                 mix: List[Call], max_conns: int) -> None:
        self.spec = spec
        self.server = server
        self.mix = mix
        self.max_conns = max_conns
        self.pid = os.getpid()
        self.open_conns = 0
        self.peak_conns = 0
        self.next_call = 0
        # outcome tallies (calls = pp_begin + pp_end)
        self.calls = 0
        self.failed_calls = 0
        self.begins = 0
        self.admitted = 0
        self.refused = 0
        self.begin_errors = 0
        self.pairs = 0
        self.sessions = 0
        self.redirect_ms: List[float] = []
        self.late_ms: List[float] = []

    # -------------------------------------------------------------- conns
    async def connect(self, path: str):
        from repro.serve.client import ServeClient

        if os.getpid() != self.pid:
            raise LoadShapeError("load must come from the driver process")
        if self.open_conns >= self.max_conns:
            raise LoadShapeError(
                f"would open connection {self.open_conns + 1} > {self.max_conns}"
            )
        client = await ServeClient.connect(unix_path=path, timeout=5.0)
        self.open_conns += 1
        self.peak_conns = max(self.peak_conns, self.open_conns)
        return client

    async def disconnect(self, client) -> None:
        if client is not None and not client.closed:
            await client.close()
            self.open_conns -= 1

    async def hello(self, client_id: str):
        """A bound session: direct for ``admit``, via REDIRECT for durable."""
        path = self.server.socket
        if self.spec.durable:
            path = await self._redirect(client_id)
        client = await self.connect(path)
        try:
            await client.hello(client_id)
        except BaseException:
            await self.disconnect(client)
            raise
        return client

    async def _redirect(self, client_id: str) -> str:
        """Ask the front-end for this client's shard; returns its socket."""
        front = await self.connect(self.server.socket)
        try:
            started = time.perf_counter()
            reply = await front.call_raw("hello", client=client_id,
                                         redirect=True, timeout=CALL_TIMEOUT_S)
            self.redirect_ms.append((time.perf_counter() - started) * 1e3)
        finally:
            await self.disconnect(front)
        error = reply.get("error") or {}
        if error.get("code") != "REDIRECT":
            raise RuntimeError(f"expected REDIRECT, got {reply}")
        return error["shard"]["unix_path"]

    # ------------------------------------------------------------ periods
    def take(self) -> Call:
        call = self.mix[self.next_call % len(self.mix)]
        self.next_call += 1
        return call

    async def period(self, client, call: Call, hold: bool,
                     due: float) -> Tuple[float, Optional[float]]:
        """One begin/hold/end; returns (begin, end) latency in ms.

        Latencies are measured from ``due``.  A refused or failed begin
        reads ``MISS`` and leaves the end unmeasured.
        """
        from repro.errors import ProtocolError

        declared = call.demand * (2 if self.spec.durable else 1)
        self.calls += 1
        self.begins += 1
        try:
            reply = await client.call_raw(
                "pp_begin", resource="llc", demand_bytes=declared,
                reuse=call.reuse, label=call.label, timeout=CALL_TIMEOUT_S,
            )
        except (asyncio.TimeoutError, ProtocolError, OSError) as exc:
            self.failed_calls += 1
            self.begin_errors += 1
            raise _Broken(exc) from exc
        admitted_at = time.perf_counter()
        if not reply.get("ok"):
            self.failed_calls += 1
            self.refused += 1
            return MISS, None
        self.admitted += 1
        begin_ms = (admitted_at - due) * 1e3
        end_due = admitted_at
        if hold and call.hold_s > 0:
            end_due += call.hold_s
            await asyncio.sleep(call.hold_s)
        fields: Dict[str, Any] = {"pp_id": reply["pp_id"]}
        if self.spec.durable:
            fields["observed_bytes"] = call.demand
        self.calls += 1
        try:
            end = await client.call_raw("pp_end", timeout=CALL_TIMEOUT_S, **fields)
        except (asyncio.TimeoutError, ProtocolError, OSError) as exc:
            self.failed_calls += 1
            raise _Broken(exc) from exc
        if not end.get("ok"):
            self.failed_calls += 1
            return begin_ms, MISS
        self.pairs += 1
        return begin_ms, (time.perf_counter() - end_due) * 1e3

    # ------------------------------------------------------------ workers
    async def _worker(self, index: int, schedule: Optional[List[float]],
                      t0: float, stop_at: float, hold: bool,
                      begins: List[float], ends: List[float],
                      cursor: List[int]) -> None:
        """Run periods until ``stop_at`` (closed) or the schedule ends."""
        client = None
        left = 0
        ids = [f"bench-w{index}-{k}" for k in range(IDS_PER_WORKER)]
        try:
            while True:
                now = time.perf_counter()
                if schedule is None:
                    if now >= stop_at:
                        return
                    due = now
                else:
                    if cursor[0] >= len(schedule):
                        return
                    due = t0 + schedule[cursor[0]]
                    cursor[0] += 1
                    if due > now:
                        await _sleep_until(due)
                        self.late_ms.append((time.perf_counter() - due) * 1e3)
                if client is None or (self.spec.durable and left == 0):
                    await self.disconnect(client)
                    self.sessions += 1
                    client = await self.hello(ids[self.sessions % len(ids)])
                    left = SESSION_PERIODS
                try:
                    begin_ms, end_ms = await self.period(
                        client, self.take(), hold, due)
                except _Broken:
                    # a timed-out or dropped connection is desynchronized:
                    # the call is a miss and the session starts over
                    await self.disconnect(client)
                    client, begin_ms, end_ms = None, MISS, None
                left -= 1
                begins.append(begin_ms)
                if end_ms is not None:
                    ends.append(end_ms)
        finally:
            await self.disconnect(client)

    async def run_phase(self, schedule: Optional[List[float]], seconds: float,
                        hold: bool) -> Tuple[List[float], List[float], float]:
        """All workers over one phase; returns begins, ends, backlog (s).

        The backlog is how late the last scheduled arrival started: it
        stays near zero while the server keeps up and grows when it does
        not.
        """
        begins: List[float] = []
        ends: List[float] = []
        cursor = [0]
        t0 = time.perf_counter()
        stop_at = t0 + seconds
        picked: List[float] = []

        async def track():
            # started-late of the final arrival = backlog at the phase end
            while cursor[0] < (len(schedule) if schedule else 0):
                await asyncio.sleep(0.01)
            picked.append(time.perf_counter() - (t0 + schedule[-1]))

        tasks = [
            asyncio.ensure_future(self._worker(
                i, schedule, t0, stop_at, hold, begins, ends, cursor))
            for i in range(self.max_conns)
        ]
        if schedule:
            tasks.append(asyncio.ensure_future(track()))
        try:
            await asyncio.gather(*tasks)
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        backlog = max(0.0, picked[0]) if picked else 0.0
        return begins, ends, backlog


async def _sleep_until(due: float) -> None:
    """Wake at ``due``: a coarse timer, then yield until the moment.

    The event loop's timers round up to whole milliseconds, which would
    make an open-loop generator up to 1 ms late on every arrival; the
    final stretch is spent yielding to other tasks instead.
    """
    coarse = due - SPIN_S - time.perf_counter()
    if coarse > 0:
        await asyncio.sleep(coarse)
    while time.perf_counter() < due:
        await asyncio.sleep(0)


def poisson_schedule(rate: float, seconds: float, seed: int,
                     stream: int) -> List[float]:
    import numpy as np

    rng = np.random.default_rng([seed, stream])
    n = max(1, int(rate * seconds * 1.5) + 10)
    times = np.cumsum(rng.exponential(1.0 / rate, n))
    return [float(t) for t in times if t < seconds]


# ----------------------------------------------------------------------
# server-side reads
# ----------------------------------------------------------------------
async def _await_hello(driver: Driver, server: ServerProcess,
                       timeout: float = 30.0) -> float:
    """Seconds from spawn until a ``hello`` is acknowledged."""
    deadline = time.perf_counter() + timeout
    while True:
        if server.proc.poll() is not None:
            raise RuntimeError(f"server exited early; see {server.log_path}")
        try:
            client = await driver.hello("bench-setup")
        except (ConnectionError, FileNotFoundError, OSError):
            if time.perf_counter() > deadline:
                raise
            await asyncio.sleep(0.005)
            continue
        elapsed = time.perf_counter() - server.spawned
        await driver.disconnect(client)
        return elapsed


async def _admin(driver: Driver, op: str) -> Dict[str, Any]:
    client = await driver.connect(driver.server.socket)
    try:
        return await client.call(op, timeout=CALL_TIMEOUT_S)
    finally:
        await driver.disconnect(client)


def _shard_stats(stats: Dict[str, Any], durable: bool) -> List[Dict[str, Any]]:
    if not durable:
        return [stats]
    return [s for s in (stats.get("shards") or {}).values() if s]


def _counter(stats: Dict[str, Any], durable: bool, name: str) -> int:
    return sum((s.get("counters") or {}).get(name, 0)
               for s in _shard_stats(stats, durable))


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def run_service(name: str, seed: int, seconds: float, trace: bool) -> Result:
    return asyncio.run(_run(name, SPECS[name], seed, seconds, trace))


async def _run(name: str, spec: ServiceSpec, seed: int, seconds: float,
               trace: bool) -> Result:
    result = Result()
    run_root = os.path.join(OUT_DIR, "run", f"{name}-{os.getpid()}")
    shutil.rmtree(run_root, ignore_errors=True)
    max_conns = min(2, os.cpu_count() or 1)
    mix = demand_mix(seed)

    # set-up times are normalised to the host's speed like the batch probes
    speed = HostSpeed()
    setup: List[float] = []
    for i in range(SETUP_PROBES - 1):
        probe = ServerProcess(spec, os.path.join(run_root, f"probe{i}"), None)
        try:
            setup.append(await _await_hello(
                Driver(spec, probe, mix, max_conns), probe))
            speed.mark()
        finally:
            probe.stop()

    trace_out = os.path.join(run_root, "server-spans.json") if trace else None
    server = ServerProcess(spec, os.path.join(run_root, "main"), trace_out)
    driver = Driver(spec, server, mix, max_conns)
    try:
        setup.append(await _await_hello(driver, server))
        speed.mark()
        result.e2e["setup_s"] = (statistics.median(speed.normalise(setup)),
                                 "s", len(setup))
        usage = await _measure(driver, spec, seed, seconds, result)
        stats = await _check_end_state(driver, spec, result)
    finally:
        exit_code = server.stop()
    result.check("server exited cleanly after drain", exit_code == 0,
                 f"exit code {exit_code}; see {server.log_path}")
    from repro.serve.journal import replay_journal

    for path in server.journals():
        state = replay_journal(path)
        result.check(f"{os.path.basename(path)} replays with no open period",
                     not state.open, f"{len(state.open)} open")
    if trace:
        from tracing import load_dump

        dump = load_dump(trace_out) if os.path.exists(trace_out) else {}
        result.check("traced server wrote its span dump", bool(dump))
        layers, bases = service_layers(driver, spec, stats, usage, dump)
        result.layers.update(layers)
        result.bases.update(bases)
        if dump:
            kept = os.path.join(OUT_DIR, "spans", f"{name}-seed{seed}-server.json")
            os.makedirs(os.path.dirname(kept), exist_ok=True)
            os.replace(trace_out, kept)
            result.dumps["server"] = kept
    if result.correct:
        shutil.rmtree(run_root, ignore_errors=True)
    return result


async def _measure(driver: Driver, spec: ServiceSpec, seed: int,
                   seconds: float, result: Result) -> Dict[str, float]:
    """The three load phases; returns CPU and lateness for the layers."""
    server_pid = driver.server.proc.pid
    server_cpu0 = proc_cpu_s(server_pid)
    client_cpu0 = time.process_time()

    # 1. open loop at the fixed rate, scripted holds: a fixed amount of
    # work, so the server's peak RSS after it compares across commits
    t_fixed = 0.25 * seconds
    schedule = poisson_schedule(spec.fixed_rate, t_fixed, seed, 1)
    begins, ends, backlog = await driver.run_phase(schedule, t_fixed, hold=True)
    late = list(driver.late_ms)

    rss = peak_rss_mb(server_pid)

    # 2. closed loop, zero hold, in windows: host and CPU seconds per batch
    # of PAIRS_BATCH pairs, each the median over the windows
    walls: List[float] = []
    cpus: List[float] = []
    peer = EchoPeer()
    try:
        # host-speed samples before the first window and after every
        # window, from two kernels: the interpreter round and the echo
        # round; a window's time is normalised by the geometric mean of
        # the two scales
        speed = HostSpeed()
        espeed = HostSpeed(peer.round, ECHO_REF_S)
        for _ in range(max(1, round(0.6 * seconds / WINDOW_S))):
            pairs = driver.pairs
            started = time.perf_counter()
            cpu0 = proc_cpu_s(server_pid) + time.process_time()
            await driver.run_phase(None, WINDOW_S, hold=False)
            done = max(driver.pairs - pairs, 1)
            walls.append((time.perf_counter() - started) * PAIRS_BATCH / done)
            cpus.append((proc_cpu_s(server_pid) + time.process_time() - cpu0)
                        * PAIRS_BATCH / done)
            speed.mark()
            espeed.mark()
    finally:
        peer.stop()
    norm = [math.sqrt(a * b) for a, b in
            zip(speed.normalise(walls), espeed.normalise(walls))]
    closed_rate = PAIRS_BATCH / statistics.median(walls)

    # 3. slo search: zero hold, a ladder of rates relative to phase 2
    steps = []
    step_s = 0.15 * seconds / len(SLO_LADDER)
    for k, share in enumerate(SLO_LADDER):
        rate = share * closed_rate
        sched = poisson_schedule(rate, step_s, seed, 100 + k)
        b, _, grew_s = await driver.run_phase(sched, step_s, hold=False)
        tail = percentile(b, 99.0) if b else MISS
        grew = grew_s > max(0.05, 0.1 * step_s)
        steps.append((rate, tail, grew))
        if tail >= spec.limit_ms or grew:
            break
    slo = crossing_rate(steps, spec.limit_ms)

    b_sum, e_sum = summarize(begins), summarize(ends)
    result.e2e["norm_wall_s"] = (statistics.median(norm), "s", len(walls))
    result.info["wall_s"] = (statistics.median(walls), "s", len(walls))
    result.info["cal_round_ms"] = speed.info()
    result.info["echo_round_ms"] = espeed.info()
    result.info["cpu_s"] = (statistics.median(cpus), "s", len(cpus))
    result.e2e["peak_rss_mb"] = (rss, "MB", 1)
    result.info["admissions_per_s"] = (closed_rate, "1/s", 1)
    result.info["slo_rate"] = (slo if slo is not None else 0.0, "1/s", len(steps))
    result.info["begin_p50_ms"] = (b_sum.median, "ms", b_sum.n)
    result.info["begin_p99_ms"] = (percentile(begins, 99.0), "ms", b_sum.n)
    result.info["end_p99_ms"] = (percentile(ends, 99.0), "ms", e_sum.n)
    result.notes.append(f"begin latency at {spec.fixed_rate:g}/s: "
                        f"{b_sum.describe()}")
    result.notes.append(f"end latency at {spec.fixed_rate:g}/s: "
                        f"{e_sum.describe()}")
    result.notes.append(
        f"slo search, limit p99 < {spec.limit_ms:g} ms (rate/s, p99 ms, "
        "backlog grew): " + ", ".join(
            f"({r:.0f}, {t:.3g}, {g})" for r, t, g in steps))
    result.attempted = driver.calls
    result.failed = driver.failed_calls

    # load-shape guard
    late_sum = summarize(late)
    late_p99 = percentile(late, 99.0) if late else 0.0
    result.check("load from one process over <= nproc connections",
                 driver.peak_conns <= driver.max_conns,
                 f"peak {driver.peak_conns} of {driver.max_conns}")
    result.notes.append(f"generator lateness: {late_sum.describe()}; backlog "
                        f"at the end of the fixed-rate phase "
                        f"{backlog * 1e3:.2f} ms")
    if late_p99 > LATE_SHARE * b_sum.median and late_p99 > 0.5:
        result.notes.append(
            f"LOAD-SHAPE WARNING: generator lateness p99 {late_p99:.3f} ms "
            f"exceeds {LATE_SHARE:g} x begin p50 {b_sum.median:.3f} ms, so "
            "the reported latency is distorted by the driver"
        )
    return {
        "server_cpu_s": proc_cpu_s(server_pid) - server_cpu0,
        "client_cpu_s": (time.process_time() - client_cpu0 - speed.cpu_s
                         - espeed.cpu_s),
        "late_p99_ms": late_p99,
    }


async def _check_end_state(driver: Driver, spec: ServiceSpec,
                           result: Result) -> Dict[str, Any]:
    """The server's own view after the load: nothing open, nothing lost."""
    durable = spec.durable
    query = await _admin(driver, "query")
    stats = (await _admin(driver, "stats"))["stats"]
    usage = sum(r.get("usage_bytes", 0)
                for r in (query.get("resources") or {}).values())
    result.check("no open period after the load",
                 query.get("open_periods") == 0,
                 f"open_periods={query.get('open_periods')}")
    result.check("no charged bytes after the load", usage == 0,
                 f"usage_bytes={usage}")
    shards = _shard_stats(stats, durable)
    peak_util = max(
        (s["gauges"]["usage_peak_bytes"] / s["gauges"]["capacity_bytes"]
         for s in shards), default=math.inf,
    )
    result.check("peak utilization <= 1.0 under Strict", peak_util <= 1.0,
                 f"peak utilization {peak_util:.3f} over {len(shards)} shard(s)")
    server_begins = _counter(stats, durable, "pp_begin_total")
    server_admits = (_counter(stats, durable, "admitted_immediate_total")
                     + _counter(stats, durable, "admitted_after_park_total"))
    result.check("server saw every pp_begin sent",
                 server_begins == driver.begins,
                 f"server {server_begins}, driver {driver.begins}")
    result.check(
        "admitted + refused + failed = attempted",
        server_admits == driver.admitted
        and driver.admitted + driver.refused + driver.begin_errors
        == driver.begins,
        f"server admitted {server_admits}; driver admitted {driver.admitted}"
        f" + refused {driver.refused} + failed {driver.begin_errors} of "
        f"{driver.begins}",
    )
    return stats


def service_layers(driver: Driver, spec: ServiceSpec, stats: Dict[str, Any],
                   usage: Dict[str, float], dump: Dict[str, Any]):
    """Per-layer metrics from the span dump, ``stats`` and ``/proc``.

    Returns the metrics and, for each ratio, its base.
    """
    from tracing import merge_layers, name_stat

    durable = spec.durable
    layers = merge_layers(dump)
    shards = _shard_stats(stats, durable)

    def counter(name: str) -> int:
        return _counter(stats, durable, name)

    frames = sum(name_stat(dump, n) for n in (
        "decode_any_frame", "decode_frame", "encode_frame",
        "encode_binary_frame"))
    begins = counter("pp_begin_total")
    periods = max(driver.pairs, 1)
    park_p99 = [
        ((s.get("histograms") or {}).get("park_time_s") or {}).get("p99")
        for s in shards
    ]
    park_p99 = [p for p in park_p99 if p is not None]
    front = (stats.get("counters") or {}) if durable else {}
    bases = {
        "codec.us_per_frame": ("frames", frames),
        "admission.park_ratio": ("pp_begin", begins),
        "predict.predicted_ratio": ("pp_begin", begins),
        "server.cpu_us_per_period": ("periods", driver.pairs),
        "client.cpu_us_per_period": ("periods", driver.pairs),
        "cluster.redirect_p99_ms": ("redirects", len(driver.redirect_ms)),
        "driver.late_p99_ms": ("timed wakeups", len(driver.late_ms)),
    }
    return {
        "codec.frames": (frames, "count"),
        "codec.self_s": (layers["codec"]["self_s"], "s"),
        "codec.us_per_frame": (
            layers["codec"]["self_s"] / max(frames, 1) * 1e6, "us"),
        "admission.calls": (layers["admission"]["calls"], "count"),
        "admission.self_s": (layers["admission"]["self_s"], "s"),
        "admission.park_ratio": (
            counter("admitted_after_park_total") / max(begins, 1), "ratio"),
        "admission.wait_ms_p99": (max(park_p99, default=0.0) * 1e3, "ms"),
        "server.cpu_us_per_period": (usage["server_cpu_s"] / periods * 1e6, "us"),
        "server.retry_after": (counter("retry_after_total"), "count"),
        "server.park_timeouts": (
            counter("park_timeouts_total")
            + counter("park_deadline_timeouts_total"), "count"),
        "journal.appends": (sum(name_stat(dump, f"AdmissionJournal.{n}") for n in (
            "record_admit", "record_close", "record_resize", "record_obs")),
            "count"),
        "journal.self_s": (layers["journal"]["self_s"], "s"),
        "journal.syncs": (
            name_stat(dump, "AdmissionJournal.sync", "calls"), "count"),
        "journal.sync_s": (name_stat(dump, "AdmissionJournal.sync", "total_s"), "s"),
        # compaction runs inside an append, so count calls, not entries
        "journal.compactions": (
            name_stat(dump, "AdmissionJournal._rewrite_snapshot", "calls"),
            "count"),
        "placer.placements": (
            name_stat(dump, "DemandAwarePlacer.place"), "count"),
        "placer.self_s": (layers["placer"]["self_s"], "s"),
        "cluster.redirects": (front.get("redirects_total", 0), "count"),
        "cluster.redirect_p99_ms": (
            percentile(driver.redirect_ms, 99.0) if driver.redirect_ms else 0.0,
            "ms"),
        "predict.observes": (
            name_stat(dump, "OnlineWssEstimator.observe"), "count"),
        "predict.self_s": (layers["predict"]["self_s"], "s"),
        "predict.predicted_ratio": (
            counter("predicted_admits_total") / max(begins, 1), "ratio"),
        "predict.resizes": (
            counter("elastic_shrinks_total") + counter("elastic_grows_total"),
            "count"),
        "client.cpu_us_per_period": (usage["client_cpu_s"] / periods * 1e6, "us"),
        "client.reconnects": (max(0, driver.sessions - driver.max_conns), "count"),
        "driver.late_p99_ms": (usage["late_p99_ms"], "ms"),
    }, bases
