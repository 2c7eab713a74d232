"""Chaos harness for the admission service: prove the fault layer works.

The fault-tolerance claims of :mod:`repro.serve` — crash-safe journal,
client leases, idempotent re-issue, shard supervision, graceful
degradation — are only as good as their worst recovery path, so this
module attacks them with five campaigns (``ChaosConfig.kind``):

* ``server`` — one journaled server subprocess behind
  :class:`ChaosProxy`, which mangles the NDJSON stream line by line with
  a seeded RNG (frames dropped, delayed, duplicated, truncated mid-line,
  connections severed); the server is SIGKILLed on a timer and restarted
  from its journal.
* ``cluster`` / ``supervised`` — N shard subprocesses behind a placer
  front-end; shards are SIGKILLed round robin, which strands their
  clients mid-protocol until the front-end re-places them on live
  shards.  The harness restarts each killed shard from its journal, or
  leaves that to the front-end's shard supervisor.
* ``rolling`` — the front-end drains, restarts and rejoins every shard
  once under live load.
* ``overload`` — one server with its overload defenses armed, an
  open-loop arrival storm that saturates its pending queue so every
  shedding path fires, slow consumers that never read replies (the
  write budget and lease reclaim), and SIGKILLs mid-storm.

One function, :func:`run_chaos`, runs them all: boot the topology, start
the load, inject the faults, wait for the system to settle (the lease
reaper reclaims what dead clients left behind), tear down.  The verdict
(:attr:`ChaosReport.ok`) is the recovery contract: zero open periods,
zero admitted demand, a clean online sanitizer and a zero exit code from
every drained server, plus each campaign's own terms.  Any leaked byte
of capacity fails the campaign.

Entry point: ``python -m repro chaos``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import signal
import sys
import time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ReproError, ServeError
from .client import ServeClient
from .cluster import ClusterFrontend
from .config import CAMPAIGN_KINDS, ChaosConfig, ClusterConfig, LoadgenConfig
from .loadgen import LoadgenReport, fig4_scripts, run_loadgen
from .placer import ShardAddress

__all__ = [
    "CAMPAIGN_KINDS",
    "FAULT_KINDS",
    "ChaosConfig",
    "ChaosProxy",
    "ChaosReport",
    "ServerProcess",
    "run_chaos",
]

#: fault kinds the proxy can inject, in threshold order
FAULT_KINDS = ("drop", "delay", "duplicate", "truncate", "sever")


class ChaosProxy:
    """Line-oriented fault-injecting proxy over unix sockets.

    Forwards newline-delimited frames between each client connection and a
    fresh backend connection, injecting faults per line from a seeded RNG,
    so a campaign's entire fault schedule replays from its seed.
    """

    def __init__(
        self,
        listen_path: str,
        backend_path: str,
        cfg: ChaosConfig,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.listen_path = listen_path
        self.backend_path = backend_path
        self.cfg = cfg
        self.rng = rng if rng is not None else random.Random(cfg.seed)
        self.faults: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self.connections = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._pairs: set = set()

    @property
    def faults_total(self) -> int:
        return sum(self.faults.values())

    # ------------------------------------------------------------------
    async def start(self) -> None:
        if os.path.exists(self.listen_path):
            os.unlink(self.listen_path)
        self._server = await asyncio.start_unix_server(
            self._handle, path=self.listen_path, limit=256 * 1024
        )

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
            self._server = None
        self.sever_all()
        if os.path.exists(self.listen_path):
            os.unlink(self.listen_path)

    def sever_all(self) -> None:
        """Hard-drop every proxied connection (used at server kill time)."""
        for pair in list(self._pairs):
            self._abort_pair(pair)

    def _abort_pair(self, pair: Tuple[asyncio.StreamWriter, ...]) -> None:
        for writer in pair:
            with contextlib.suppress(Exception):
                writer.transport.abort()

    # ------------------------------------------------------------------
    async def _handle(
        self, creader: asyncio.StreamReader, cwriter: asyncio.StreamWriter
    ) -> None:
        try:
            breader, bwriter = await asyncio.open_unix_connection(
                self.backend_path, limit=256 * 1024
            )
        except OSError:
            # Backend down (mid-restart): the client sees a hard reset and
            # its resilient layer backs off and retries.
            with contextlib.suppress(Exception):
                cwriter.transport.abort()
            return
        self.connections += 1
        pair = (cwriter, bwriter)
        self._pairs.add(pair)
        try:
            await asyncio.gather(
                self._pump(creader, bwriter, pair),
                self._pump(breader, cwriter, pair),
                return_exceptions=True,
            )
        finally:
            self._pairs.discard(pair)
            for writer in pair:
                with contextlib.suppress(Exception):
                    writer.close()

    async def _pump(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        pair: Tuple[asyncio.StreamWriter, ...],
    ) -> None:
        cfg = self.cfg
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                r = self.rng.random()
                threshold = cfg.drop_rate
                if r < threshold:
                    self.faults["drop"] += 1
                    continue
                threshold += cfg.delay_rate
                if r < threshold:
                    self.faults["delay"] += 1
                    await asyncio.sleep(self.rng.random() * cfg.delay_max_s)
                    writer.write(line)
                    await writer.drain()
                    continue
                threshold += cfg.duplicate_rate
                if r < threshold:
                    # Requests dedupe by idempotency token; replies dedupe
                    # by request id — a doubled frame must be harmless.
                    self.faults["duplicate"] += 1
                    writer.write(line + line)
                    await writer.drain()
                    continue
                threshold += cfg.truncate_rate
                if r < threshold:
                    # The torn write: half a frame, then a dead socket.
                    self.faults["truncate"] += 1
                    writer.write(line[: max(1, len(line) // 2)])
                    with contextlib.suppress(Exception):
                        await writer.drain()
                    self._abort_pair(pair)
                    return
                threshold += cfg.sever_rate
                if r < threshold:
                    self.faults["sever"] += 1
                    self._abort_pair(pair)
                    return
                writer.write(line)
                await writer.drain()
        except (ConnectionError, OSError, ValueError, asyncio.CancelledError):
            pass
        finally:
            # Propagate EOF so the peer's read loop terminates cleanly.
            with contextlib.suppress(Exception):
                writer.close()


class ServerProcess:
    """One ``python -m repro serve`` subprocess bound to a journal.

    Restartable: after :meth:`kill`, :meth:`start` boots a fresh process
    that replays the same journal — the unit the chaos campaign cycles.
    """

    def __init__(
        self, socket_path: str, journal_path: str, cfg: ChaosConfig,
        flags: Tuple[str, ...] = (),
    ) -> None:
        self.socket_path = socket_path
        self.journal_path = journal_path
        self.cfg = cfg
        #: ``serve`` flags after the common ones (the overload defenses)
        self.flags = flags
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.output: List[str] = []
        self._drain_task: Optional[asyncio.Task] = None

    def _argv(self) -> List[str]:
        return [
            sys.executable, "-m", "repro", "serve",
            "--socket", self.socket_path,
            "--policy", self.cfg.policy,
            "--capacity-mb", str(self.cfg.capacity_mb),
            "--journal", self.journal_path,
            "--journal-fsync", str(self.cfg.journal_fsync_s),
            "--lease-ttl", str(self.cfg.lease_ttl_s),
            "--lease-check", str(self.cfg.lease_check_s),
            "--park-timeout", str(self.cfg.park_timeout_s),
            "--drain-grace", "3.0",
            "--sanitize",
            *self.flags,
        ]

    async def start(self) -> None:
        env = dict(os.environ)
        # Make ``-m repro`` resolve to *this* tree no matter how the
        # parent was launched (pytest from a checkout, an installed CLI…).
        src_dir = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = await asyncio.create_subprocess_exec(
            *self._argv(),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=env,
        )
        self._drain_task = asyncio.ensure_future(self._drain_output())
        await self._wait_ready()

    async def _drain_output(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        try:
            while True:
                line = await self.proc.stdout.readline()
                if not line:
                    break
                self.output.append(line.decode(errors="replace").rstrip())
        except (ConnectionError, ValueError, asyncio.CancelledError):
            pass

    async def _wait_ready(self) -> None:
        assert self.proc is not None
        deadline = time.monotonic() + self.cfg.server_start_timeout_s
        while time.monotonic() < deadline:
            if self.proc.returncode is not None:
                raise ServeError(
                    f"server exited {self.proc.returncode} during startup:\n"
                    + "\n".join(self.output[-10:])
                )
            if os.path.exists(self.socket_path):
                try:
                    probe = await ServeClient.connect(
                        unix_path=self.socket_path, timeout=1.0
                    )
                    try:
                        await probe.query(timeout=1.0)
                    finally:
                        await probe.close()
                    return
                except (ReproError, OSError, asyncio.TimeoutError):
                    pass
            await asyncio.sleep(0.05)
        raise ServeError(
            f"server not ready within {self.cfg.server_start_timeout_s} s"
        )

    def kill(self) -> None:
        """SIGKILL — no drain, no journal flush, no goodbye."""
        assert self.proc is not None
        with contextlib.suppress(ProcessLookupError):
            self.proc.send_signal(signal.SIGKILL)

    async def wait(self, timeout_s: Optional[float] = None) -> int:
        assert self.proc is not None
        if timeout_s is None:
            code = await self.proc.wait()
        else:
            code = await asyncio.wait_for(self.proc.wait(), timeout=timeout_s)
        if self._drain_task is not None:
            with contextlib.suppress(Exception):
                await self._drain_task
            self._drain_task = None
        return code


@dataclass
class ChaosReport:
    """What one chaos campaign inflicted and observed."""

    seed: int
    wall_s: float
    kills: int
    faults: Dict[str, int]
    faults_total: int
    proxy_connections: int
    load: LoadgenReport
    replayed_periods_last_boot: int
    settled: bool
    settle_s: float
    final_open_periods: int
    final_usage_bytes: int
    final_waiting: int
    sanitizer_ok: Optional[bool]
    server_exit_code: Optional[int]
    server_output: List[str] = field(default_factory=list)
    #: cluster campaigns: shard count and front-end counters (else 0/empty)
    shards: int = 0
    cluster_counters: Dict[str, int] = field(default_factory=dict)
    #: supervised campaigns: restarts performed by the shard supervisor
    supervised: bool = False
    shard_restarts: int = 0
    shards_alive_final: int = 0
    shards_quarantined: int = 0
    #: rolling campaigns: shards that completed a drain+restart cycle
    rolling: bool = False
    rolled_shards: int = 0
    #: overload campaigns: extra verdict inputs (inert for the others)
    overload: bool = False
    p99_bound_s: Optional[float] = None
    p99_observed_s: Optional[float] = None
    slowloris_clients: int = 0
    slowloris_disconnects: int = 0
    final_clients: int = 0

    @property
    def ok(self) -> bool:
        """The recovery contract: quiescent, conserved, clean exit."""
        verdict = (
            self.settled
            and self.final_open_periods == 0
            and self.final_usage_bytes == 0
            and self.final_waiting == 0
            and self.sanitizer_ok is not False
            and self.server_exit_code == 0
        )
        if self.supervised:
            # Self-healing contract: every kill was healed by the
            # supervisor (capacity recovered to N shards alive) and
            # nothing got stuck in quarantine.
            verdict = (
                verdict
                and self.shard_restarts > 0
                and self.shards_alive_final == self.shards
                and self.shards_quarantined == 0
            )
        if self.rolling:
            # Rolling-restart contract: every shard completed its
            # drain+restart cycle and no admitted period was lost.
            verdict = (
                verdict
                and self.rolled_shards == self.shards
                and self.shards_alive_final == self.shards
                and self.load.lost_periods == 0
            )
        if self.overload:
            # Degradation contract: admitted calls stay fast, every shed
            # reply carries a retry hint, and dead slow consumers' leases
            # are reclaimed (no leaked clients).
            verdict = (
                verdict
                and self.load.sheds_without_hint == 0
                and self.final_clients == 0
                and self.load.admission_latency.count > 0
                and self.p99_bound_s is not None
                and self.p99_observed_s is not None
                and self.p99_observed_s <= self.p99_bound_s
            )
        return verdict

    def to_dict(self) -> Dict[str, Any]:
        """Every field in declaration order but the server output, the
        load as its own payload, then the verdict."""
        payload = {
            f.name: getattr(self, f.name)
            for f in fields(self) if f.name != "server_output"
        }
        payload["load"] = self.load.to_dict()
        payload["ok"] = self.ok
        return payload

    def describe(self) -> str:
        fault_bits = ", ".join(
            f"{self.faults[k]} {k}" for k in FAULT_KINDS if self.faults[k]
        )
        shape = (
            f"rolling restart campaign ({self.shards} shard(s), "
            if self.rolling
            else f"supervised cluster campaign ({self.shards} shard(s), "
            if self.supervised
            else f"cluster chaos campaign ({self.shards} shard(s), "
            if self.shards
            else "overload campaign ("
            if self.overload
            else "chaos campaign ("
        )
        lines = [
            f"{shape}seed {self.seed}): {self.wall_s:.2f} s wall, "
            f"{self.kills} kill(s), {self.faults_total} fault(s) injected"
            + (f" ({fault_bits})" if fault_bits else ""),
            f"  load: {self.load.admitted}/{self.load.calls} admitted, "
            f"{self.load.reconnects} reconnect(s), "
            f"{self.load.deduped} deduped begin(s), "
            f"{self.load.lost_periods} lost period(s)",
            f"  recovery: {self.replayed_periods_last_boot} period(s) "
            f"replayed at last boot, settled in {self.settle_s:.2f} s "
            f"({'yes' if self.settled else 'NO'})",
            f"  final: {self.final_open_periods} open period(s), "
            f"{self.final_usage_bytes} B charged, "
            f"{self.final_waiting} waiting, sanitizer "
            + (
                "ok" if self.sanitizer_ok
                else "VIOLATED" if self.sanitizer_ok is False
                else "n/a"
            )
            + f", server exit {self.server_exit_code}",
        ]
        if self.cluster_counters:
            lines.append(
                "  placer: "
                + ", ".join(
                    f"{v} {k}" for k, v in sorted(self.cluster_counters.items())
                )
            )
        if self.supervised or self.rolling:
            bits = [
                f"{self.shard_restarts} supervised restart(s)",
                f"{self.shards_alive_final}/{self.shards} shard(s) alive",
                f"{self.shards_quarantined} quarantined",
            ]
            if self.rolling:
                bits.append(
                    f"{self.rolled_shards}/{self.shards} rolled"
                )
            lines.append("  lifecycle: " + ", ".join(bits))
        if self.overload:
            p99 = (
                f"{self.p99_observed_s * 1e3:.1f} ms"
                if self.p99_observed_s is not None
                and self.p99_observed_s == self.p99_observed_s
                else "n/a"
            )
            bound = (
                f"{self.p99_bound_s * 1e3:.0f} ms"
                if self.p99_bound_s is not None else "n/a"
            )
            lines.append(
                f"  overload: admitted p99 {p99} (bound {bound}), "
                f"{self.load.shed_calls} call(s) shed "
                f"({self.load.sheds_without_hint} missing a retry hint), "
                f"{self.slowloris_disconnects}/{self.slowloris_clients} "
                f"slow consumer(s) disconnected, "
                f"{self.final_clients} client lease(s) left"
            )
        lines.append(f"  verdict: {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the campaign runner
# ----------------------------------------------------------------------
def _subprocess_restarter(shard: ServerProcess):
    """Restart hook handed to the front-end's shard supervisor: reap the
    killed subprocess, then boot a fresh one on the same journal."""

    async def restart() -> None:
        try:
            await shard.wait(timeout_s=15.0)
        except asyncio.TimeoutError:
            # The process never exited: the "death" was a probe flap
            # under load.  Booting a second incarnation next to a live
            # one would fight it for the socket and the journal lock, so
            # leave it alone — the supervisor's ready-probe re-registers
            # the survivor.
            return
        await shard.start()

    return restart


async def _slowloris(
    socket_path: str, index: int, stop: asyncio.Event
) -> int:
    """One slow consumer: hello, then flood requests while never reading.

    The server's replies pile up in the socket it can't flush, its
    bounded ``drain()`` trips the write budget, and it aborts the
    connection — at which point this task reconnects and floods again.
    Returns how many times the connection was severed under it.

    Shutdown is via ``stop`` (checked every iteration), not cancellation
    alone: on 3.11 a ``wait_for`` whose inner future completed just as
    the cancel landed swallows the CancelledError, and this loop runs
    hot enough to hit that race almost surely.
    """
    disconnects = 0
    seq = 0
    while not stop.is_set():
        try:
            reader, writer = await asyncio.open_unix_connection(
                socket_path, limit=256 * 1024
            )
        except OSError:
            # Server mid-restart: try again shortly.
            try:
                await asyncio.sleep(0.1)
                continue
            except asyncio.CancelledError:
                return disconnects
        try:
            hello = {
                "id": seq, "op": "hello", "client": f"slowloris-{index}",
            }
            seq += 1
            writer.write((json.dumps(hello) + "\n").encode("utf-8"))
            await writer.drain()
            while not stop.is_set():
                frame = {"id": seq, "op": "stats"}
                seq += 1
                writer.write((json.dumps(frame) + "\n").encode("utf-8"))
                # Bound our own drain: once the server aborts us the
                # write surfaces as a ConnectionError and we reconnect.
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(writer.drain(), timeout=0.2)
                # Pace the flood: the attack is the unread reply backlog,
                # not request volume — unpaced, this loop monopolizes the
                # driver's event loop and drowns the storm it rides with.
                await asyncio.sleep(0.002)
        except (ConnectionError, OSError):
            disconnects += 1
        except asyncio.CancelledError:
            return disconnects
        finally:
            with contextlib.suppress(Exception):
                writer.transport.abort()
    return disconnects


#: the overload campaign's server defenses, tight enough that a short
#: storm trips every one
_OVERLOAD_FLAGS = (
    "--max-pending", "16",
    "--retry-hint-floor", "0.05",
    "--retry-hint-cap", "2.0",
    "--max-pending-per-client", "2",
    "--write-timeout", "1.0",
)

#: (report name, front-end attribute) of the counters a cluster reports
_CLUSTER_COUNTERS = (
    ("placements", "c_placements"),
    ("redirects", "c_redirects"),
    ("migrations", "c_migrations"),
    ("migration_failures", "c_migration_failures"),
    ("shard_restarts", "c_shard_restarts"),
    ("rebalance_migrations", "c_rebalances"),
    ("shard_drains", "c_shard_drains"),
)


async def _call(socket_path: str, op: str) -> Dict[str, Any]:
    """One request on a fresh connection."""
    client = await ServeClient.connect(unix_path=socket_path, timeout=5.0)
    try:
        return await client.call(op, timeout=10.0)
    finally:
        await client.close()


def _totals(replies: List[Dict[str, Any]]) -> Dict[str, int]:
    """Sum the settle inputs over one ``query`` reply per server."""
    totals = dict.fromkeys(
        ("open_periods", "waiting", "clients", "usage_bytes", "replayed"), 0
    )
    for q in replies:
        for key in ("open_periods", "waiting", "clients"):
            totals[key] += int(q.get(key, -1))
        totals["usage_bytes"] += sum(
            int(state.get("usage_bytes", 0))
            for state in q.get("resources", {}).values()
        )
        totals["replayed"] += int(
            (q.get("journal") or {}).get("replayed_periods", 0)
        )
    return totals


async def _reap(server: ServerProcess, drained: bool) -> Optional[int]:
    """Exit code of a retired server: wait for a drained one, kill one
    that was not drained or does not exit.  None when no process was
    spawned or a drained one had to be killed."""
    if server.proc is None:
        return None
    if not drained:
        server.kill()
    try:
        return await server.wait(timeout_s=10.0)
    except asyncio.TimeoutError:
        server.kill()
        with contextlib.suppress(asyncio.TimeoutError):
            await server.wait(timeout_s=5.0)
        return None


class _Campaign:
    """One campaign's parts and state, decided once from ``cfg.kind``.

    After construction every step branches on the parts the campaign has
    — a frame-mangling proxy, a placer front-end with or without a shard
    supervisor, an open-loop storm with slow consumers — never on the
    campaign's name.
    """

    def __init__(self, cfg: ChaosConfig, workdir: str) -> None:
        kind = cfg.kind
        self.storm = kind == "overload"
        if self.storm:
            # The storm must oversubscribe capacity or nothing sheds: at
            # the classic campaign's 10 ms holds, 150 arrivals/s of 2 MB
            # fits in an 8 MB machine with room to spare.  150 ms holds
            # put offered load at ~5-6x capacity.  A 1 s park timeout
            # sheds the storm's parked begins with a retry hint.
            cfg = replace(
                cfg,
                hold_s=max(cfg.hold_s, 0.15),
                park_timeout_s=min(cfg.park_timeout_s, 1.0),
            )
        self.cfg = cfg
        self.rolling = kind == "rolling"
        #: the front-end's supervisor restarts killed shards, not the harness
        self.supervised = kind in ("supervised", "rolling")
        self.proxy: Optional[ChaosProxy] = None
        self.frontend: Optional[ClusterFrontend] = None
        if kind in ("cluster", "supervised", "rolling"):
            self.servers = [
                ServerProcess(
                    os.path.join(workdir, f"shard{i}.sock"),
                    os.path.join(workdir, f"shard{i}-journal.ndjson"),
                    cfg,
                )
                for i in range(cfg.shards)
            ]
            self.entry = os.path.join(workdir, "placer.sock")
            self.frontend = ClusterFrontend(ClusterConfig(
                shards=tuple(
                    ShardAddress(name=f"shard{i}", unix_path=s.socket_path)
                    for i, s in enumerate(self.servers)
                ),
                seed=cfg.seed,
                health_interval_s=0.1,
                probe_timeout_s=2.0,
                # deliberate SIGKILLs are not crash loops: never
                # quarantine a shard for dying on schedule
                crash_loop_window_s=0.0,
                restart_backoff_s=0.1,
                restart_ready_timeout_s=cfg.server_start_timeout_s,
            ))
        else:
            name = "overload" if self.storm else "chaos"
            server = ServerProcess(
                os.path.join(workdir, f"{name}-server.sock"),
                os.path.join(workdir, f"{name}-journal.ndjson"),
                cfg, _OVERLOAD_FLAGS if self.storm else (),
            )
            self.servers = [server]
            self.entry = server.socket_path
            if not self.storm:
                self.entry = os.path.join(workdir, "chaos-proxy.sock")
                self.proxy = ChaosProxy(
                    self.entry, server.socket_path, cfg,
                    rng=random.Random(cfg.seed ^ 0x5EED),
                )
        #: quiescence: the storm's slow consumers must be gone too
        self.quiet = ("open_periods", "usage_bytes", "waiting") + (
            ("clients",) if self.storm else ()
        )
        self.frontend_task: Optional[asyncio.Task] = None
        self.load_task: Optional[asyncio.Task] = None
        self.slow_stop = asyncio.Event()
        self.slow_tasks: List[asyncio.Task] = []
        self.slow_disconnects = 0
        self.kills = 0
        self.rolled = 0
        self.settled = False
        self.settle_s = 0.0
        self.final = {
            "open_periods": -1, "usage_bytes": -1, "waiting": -1,
            "clients": -1, "replayed": 0,
        }
        self.sanitizer_ok: Optional[bool] = None
        self.exit_codes: List[Optional[int]] = []
        self.shards_alive = 0
        self.shards_quarantined = 0

    async def start(self) -> None:
        """Boot the servers, then whatever sits in front of them."""
        for server in self.servers:
            await server.start()
        if self.proxy is not None:
            await self.proxy.start()
        if self.frontend is not None:
            await self.frontend.start(unix_path=self.entry)
            if self.supervised:
                for i, shard in enumerate(self.servers):
                    self.frontend.register_restarter(
                        f"shard{i}", _subprocess_restarter(shard)
                    )
            self.frontend_task = asyncio.ensure_future(
                self.frontend.run_until_drained()
            )
        if self.storm:
            self.slow_tasks = [
                asyncio.ensure_future(_slowloris(self.entry, i, self.slow_stop))
                for i in range(self.cfg.slowloris)
            ]

    def start_load(self) -> None:
        """Start the figure-4 load: an open-loop storm, or closed-loop
        clients that are resilient through the proxy and follow
        redirects behind a front-end."""
        cfg = self.cfg
        common = dict(
            sessions=cfg.sessions, duration_s=cfg.duration_s,
            time_scale=1.0, call_timeout_s=2.0, seed=cfg.seed,
            # past the server's park timeout, silence on pp_begin means a
            # dropped frame, not a parked period — reconnect and re-issue
            begin_timeout_s=cfg.park_timeout_s + 2.0,
        )
        if self.storm:
            load_cfg = LoadgenConfig(
                mode="open",
                rate=cfg.storm_rate,
                max_hold_s=max(cfg.hold_s, 0.05),
                # A storm client that keeps being shed gives up quickly —
                # the point is terminal shed accounting, not eventual
                # admission.
                max_retries=6,
                resilient=True,
                client_backoff_cap_s=cfg.backoff_cap_s,
                breaker_threshold=cfg.breaker_threshold,
                breaker_reset_s=cfg.breaker_reset_s,
                **common,
            )
        else:
            load_cfg = LoadgenConfig(
                mode="closed",
                clients=cfg.clients,
                max_hold_s=max(cfg.hold_s, 0.25),
                max_retries=100_000,
                resilient=self.frontend is None,
                cluster=self.frontend is not None,
                **common,
            )
        scripts = fig4_scripts(
            n=max(8, cfg.clients * 2), demand_mb=cfg.demand_mb,
            hold_s=cfg.hold_s,
        )
        self.load_task = asyncio.ensure_future(
            run_loadgen(scripts, load_cfg, unix_path=self.entry)
        )

    async def inject_faults(self) -> None:
        """One rolling restart after a warm-up, or SIGKILL cycles."""
        cfg = self.cfg
        if self.rolling:
            # warm up: let the load establish leases and admitted periods
            await asyncio.sleep(min(cfg.kill_interval_s, cfg.duration_s / 4))
            results = await self.frontend.rolling_restart(
                grace_s=cfg.rolling_grace_s
            )
            self.rolled = sum(1 for ok in results.values() if ok)
            return
        for cycle in range(cfg.kills):
            await asyncio.sleep(cfg.kill_interval_s)
            if self.load_task.done():
                break
            victim = self._victim(cycle)
            if victim is None:
                continue
            victim.kill()
            await victim.wait()
            self.kills += 1
            if self.proxy is not None:
                # Connections through the proxy are stranded on a dead
                # backend; hard-drop them so clients reconnect promptly.
                self.proxy.sever_all()
            if not self.supervised:
                await victim.start()

    def _victim(self, cycle: int) -> Optional[ServerProcess]:
        """Round robin.  Under a supervisor, the first shard from there it
        has already healed — a still-dead shard yields no new kill to
        supervise."""
        n = len(self.servers)
        if not self.supervised:
            return self.servers[cycle % n]
        shards = self.frontend.placer.shards
        for offset in range(n):
            idx = (cycle + offset) % n
            if shards[f"shard{idx}"].alive:
                return self.servers[idx]
        return None

    async def stop_slowloris(self) -> None:
        """Call off the slow consumers and count their disconnects."""
        self.slow_stop.set()
        for task in self.slow_tasks:
            task.cancel()
        results = await asyncio.gather(*self.slow_tasks, return_exceptions=True)
        self.slow_disconnects += sum(r for r in results if isinstance(r, int))
        self.slow_tasks = []

    async def settle(self) -> None:
        """Probe every server until the lease reaper has reclaimed what
        dead clients left behind, or the settle budget runs out."""
        t0 = time.monotonic()
        deadline = t0 + self.cfg.settle_timeout_s
        while time.monotonic() < deadline:
            try:
                replies = [
                    await _call(server.socket_path, "query")
                    for server in self.servers
                ]
            except (ReproError, OSError, asyncio.TimeoutError):
                pass
            else:
                self.final = _totals(replies)
                if all(self.final[key] == 0 for key in self.quiet):
                    self.settled = True
                    break
            await asyncio.sleep(0.1)
        self.settle_s = time.monotonic() - t0

    async def _retire(self, server: ServerProcess) -> bool:
        """Fold one server's sanitizer verdict, then drain it; False when
        it could not be reached."""
        if server.proc is None:
            return False
        try:
            stats = (await _call(server.socket_path, "stats"))["stats"]
            sanitizer = stats.get("sanitizer")
            if sanitizer is not None:
                ok = bool(sanitizer.get("ok"))
                self.sanitizer_ok = (
                    ok if self.sanitizer_ok is None
                    else self.sanitizer_ok and ok
                )
            await _call(server.socket_path, "drain")
        except (ReproError, OSError, asyncio.TimeoutError):
            return False
        return True

    async def teardown(self) -> None:
        """Read the last verdict inputs and stop everything.

        Runs on every exit, exceptions included: no server process, load
        or slow consumer outlives the campaign.
        """
        if self.load_task is not None and not self.load_task.done():
            self.load_task.cancel()
            await asyncio.gather(self.load_task, return_exceptions=True)
        drained: Dict[int, bool] = {}
        try:
            if self.frontend_task is not None:
                # capacity-recovery verdict inputs, read before the
                # drains below take the shards down
                await self.frontend._health_sweep()
                self.shards_alive = len(self.frontend.placer.alive_shards())
                self.shards_quarantined = len(self.frontend.quarantined)
                # from here on every shard death is deliberate: stop the
                # supervisor before it resurrects what the drains take down
                await self.frontend.disarm_supervision()
            for i, server in enumerate(self.servers):
                drained[i] = await self._retire(server)
        finally:
            for i, server in enumerate(self.servers):
                self.exit_codes.append(
                    await _reap(server, drained.get(i, False))
                )
            if self.proxy is not None:
                await self.proxy.close()
            await self.stop_slowloris()
            if self.frontend_task is not None:
                self.frontend.request_drain()
                await asyncio.gather(self.frontend_task, return_exceptions=True)

    def report(self, load: LoadgenReport, wall_s: float) -> ChaosReport:
        """What the campaign inflicted and observed, judged by kind."""
        cfg, proxy, frontend = self.cfg, self.proxy, self.frontend
        extra: Dict[str, Any] = {}
        if frontend is not None:
            extra.update(
                shards=len(self.servers),
                cluster_counters={
                    name: getattr(frontend, attr).value
                    for name, attr in _CLUSTER_COUNTERS
                },
                supervised=cfg.kind == "supervised",
                shard_restarts=frontend.c_shard_restarts.value,
                shards_alive_final=self.shards_alive,
                shards_quarantined=self.shards_quarantined,
                rolling=self.rolling,
                rolled_shards=self.rolled,
            )
        if self.storm:
            extra.update(
                overload=True,
                p99_bound_s=cfg.p99_bound_s,
                p99_observed_s=load.admission_latency.p99,
                slowloris_clients=cfg.slowloris,
                slowloris_disconnects=self.slow_disconnects,
                final_clients=self.final["clients"],
            )
        return ChaosReport(
            seed=cfg.seed,
            wall_s=wall_s,
            kills=self.kills,
            faults=(
                dict(proxy.faults) if proxy else dict.fromkeys(FAULT_KINDS, 0)
            ),
            faults_total=proxy.faults_total if proxy else 0,
            proxy_connections=proxy.connections if proxy else 0,
            load=load,
            replayed_periods_last_boot=self.final["replayed"],
            settled=self.settled,
            settle_s=self.settle_s,
            final_open_periods=self.final["open_periods"],
            final_usage_bytes=self.final["usage_bytes"],
            final_waiting=self.final["waiting"],
            sanitizer_ok=self.sanitizer_ok,
            # 0 only when every server exited 0 after its drain
            server_exit_code=next((c for c in self.exit_codes if c != 0), 0),
            server_output=[
                f"[shard{i}] {line}" if frontend else line
                for i, server in enumerate(self.servers)
                for line in server.output
            ],
            **extra,
        )


async def run_chaos(cfg: ChaosConfig, workdir: str) -> ChaosReport:
    """Run one campaign of ``cfg.kind``: serve, load, hurt, settle, judge.

    Every kind walks the same steps — boot the topology, start the load,
    inject the faults, settle, tear down — and the teardown runs on every
    exit, so a failed campaign leaves no server process behind.
    """
    os.makedirs(workdir, exist_ok=True)
    t_start = time.monotonic()
    run = _Campaign(cfg, workdir)
    try:
        await run.start()
        run.start_load()
        await run.inject_faults()
        load = await run.load_task
        # The load is over: call off the slow consumers, then let the
        # lease reaper reclaim what they and the load left behind.
        await run.stop_slowloris()
        await run.settle()
    finally:
        await run.teardown()
    return run.report(load, time.monotonic() - t_start)
