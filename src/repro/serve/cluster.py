"""Cluster front-end: demand-aware placement across admission shards.

One :class:`~repro.serve.server.AdmissionServer` is one simulated socket
(one LLC, one journal, one lease table).  This module scales the service
out: N admission shards behind one placer front-end that owns *which*
shard each client charges, using the dominant-remaining-resource scoring
of :mod:`repro.serve.placer`.

The front-end speaks the same wire protocol as a shard, so every existing
client works unchanged.  Placement is delivered two ways:

* **Redirect.**  A ``hello`` carrying ``"redirect": true`` (sent by
  :class:`~repro.serve.resilient.ResilientServeClient` by default) is
  answered with a typed ``REDIRECT`` error whose ``error.shard`` field
  names the assigned shard's address.  The client re-dials the shard
  directly — after the handshake the front-end is out of the data path.
  When the shard later dies, the client falls back to the front-end and
  is re-placed.
* **Forward.**  Any other first frame starts a frame-aware bidirectional
  pump to the assigned shard: the front-end stays on the data path,
  tracking binary-framing negotiation (the codec switch applies to both
  legs), per-client demand, in-flight ``pp_begin`` requests and admitted
  periods.  Forward mode is what makes **migration** possible: when a
  forwarded client's only outstanding work is a *parked* ``pp_begin`` and
  its shard is saturated while another shard has headroom, the balance
  loop closes the old shard leg (the shard cancels the parked period on
  EOF — it holds no capacity), re-binds the client identity on the target
  shard with an injected ``hello`` (a negative request id the pump
  swallows), and re-issues the parked begin verbatim — same request id,
  same idempotency token — so the client simply sees its reply arrive
  from a shard with room.

``query`` and ``stats`` on a connection that has not picked a shard are
aggregated across every live shard, so one probe sees cluster-wide
utilization; ``drain`` fans out to all shards and then drains the
front-end itself.  A health loop probes each shard and feeds the placer's
liveness/usage model; per-shard gauges, ``placements_total``,
``redirects_total``, ``migrations_total`` and the ``fragmentation`` gauge
are exported through the standard metrics registry.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import itertools
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ProtocolError, ServeError
from . import protocol
from .client import ServeClient
from .metrics import MetricsRegistry
from .placer import ClusterError, DemandAwarePlacer, ShardAddress, ShardState
from .protocol import ErrorCode
from .server import AdmissionServer, ServeConfig

__all__ = [
    "ClusterConfig",
    "ClusterFrontend",
    "LocalCluster",
    "start_local_cluster",
]


def _connect_kwargs(address: ShardAddress) -> Dict[str, Any]:
    if address.unix_path is not None:
        return {"unix_path": address.unix_path}
    return {"host": address.host, "port": address.port}


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of one cluster front-end instance."""

    #: the admission shards this front-end places over
    shards: Tuple[ShardAddress, ...] = ()
    #: tie-break seed — placement is deterministic given (seed, demands,
    #: capacities); see repro.serve.placer
    seed: int = 0
    #: period of the shard health/usage probe loop
    health_interval_s: float = 0.25
    #: per-probe connect+query budget
    probe_timeout_s: float = 1.0
    #: period of the parked-client migration sweep
    balance_interval_s: float = 0.1
    #: a pp_begin must be parked this long before it may migrate
    migrate_after_s: float = 0.25
    #: master switch for parked-client migration
    migration: bool = True
    #: hint attached to RETRY_AFTER when no shard is alive
    retry_after_s: float = 0.25
    #: brownout mode: when no live shard can fit the observed peak demand
    #: AND the fragmentation gauge holds at/above this threshold for
    #: ``brownout_sweeps`` consecutive health sweeps, *new* clients are
    #: shed with a typed OVERLOAD error (None = brownout disabled)
    brownout_fragmentation: Optional[float] = None
    #: consecutive saturated health sweeps before brownout engages
    brownout_sweeps: int = 3
    #: cluster-wide retry hint carried by OVERLOAD sheds
    brownout_retry_s: float = 0.5
    #: proactive rebalance: when the fragmentation gauge sits at/above
    #: this threshold the ``migrate_after_s`` age gate is waived and
    #: parked clients may move immediately (None = age-gated only)
    rebalance_fragmentation: Optional[float] = 0.5
    #: supervisor poll period (only matters once restarters registered)
    supervise_interval_s: float = 0.1
    #: base restart backoff; doubles per crash-loop streak entry
    restart_backoff_s: float = 0.2
    #: ceiling on the exponential restart backoff
    restart_backoff_cap_s: float = 5.0
    #: a shard death within this window of its last supervised restart
    #: counts as a crash loop
    crash_loop_window_s: float = 10.0
    #: crash-loop streak length that quarantines the shard
    quarantine_after: int = 3
    #: budget for a restarted shard to answer its first probe
    restart_ready_timeout_s: float = 15.0
    #: rolling restart: grace for a draining shard's running periods
    shard_drain_grace_s: float = 5.0
    #: largest accepted request frame
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    #: flat file the cluster metrics snapshot is dumped to
    metrics_json: Optional[str] = None
    #: dump interval for ``metrics_json``
    metrics_interval_s: float = 2.0


class _ForwardPump:
    """One forwarded client: a frame-aware relay to its assigned shard.

    The pump re-encodes every frame rather than splicing bytes, because
    the two legs can transiently disagree on encoding: after a migration
    the new shard leg starts in NDJSON while the client leg may already
    be binary, and during binary negotiation the acknowledging reply
    itself still travels in the old encoding.  *Reads* sniff the
    encoding per frame (``read_raw_frame(binary=None)``) — a leg's read
    is usually already parked when the negotiating ack flips the
    encoding, so a mode flag checked at read *start* would strand the
    pump in ``readline()`` while binary frames arrive.  *Writes* carry
    explicit flags: ``client_binary`` flips when the ack is forwarded,
    and ``shard_write_binary`` must flip as soon as a ``hello {binary}``
    is sent upstream of it (the shard switches the moment it *sends* the
    ack, before the pump has read it).
    """

    def __init__(
        self,
        frontend: "ClusterFrontend",
        client_id: str,
        named: bool,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        shard: ShardState,
    ) -> None:
        self.frontend = frontend
        self.client_id = client_id
        #: True when the client introduced itself with hello (migratable)
        self.named = named
        self.client_reader = reader
        self.client_writer = writer
        self.shard = shard
        self.client_binary = False
        self.shard_write_binary = False
        self.backend: Optional[ServeClient] = None
        #: serializes client->shard writes against migration's leg swap
        self._backend_lock = asyncio.Lock()
        self._backend_changed = asyncio.Event()
        self._closed = False
        self._migrating = False
        #: hello frame as the client sent it, replayed on migration
        self._hello_frame: Optional[Dict[str, Any]] = None
        #: request id -> (pp_begin frame, sent-at) awaiting a reply
        self._inflight: Dict[int, Tuple[Dict[str, Any], float]] = {}
        #: pp_end request id -> pp_id, to retire admitted periods
        self._ending: Dict[int, int] = {}
        #: periods admitted (and still open) on the current shard
        self._admitted: set = set()
        #: negative ids for frames this pump injects; replies are swallowed
        self._inject_ids = itertools.count(-1, -1)
        self._swallow: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def run(self, first_frame: Dict[str, Any]) -> None:
        """Relay until either side closes; returns with both legs closed."""
        cfg = self.frontend.cfg
        try:
            backend = await ServeClient.connect(
                timeout=cfg.probe_timeout_s,
                **_connect_kwargs(self.shard.address),
            )
        except (ConnectionError, OSError, asyncio.TimeoutError):
            # The assigned shard just became unreachable.  Push the client
            # back with RETRY_AFTER: its resilient layer re-dials the
            # front-end, by which time the health loop has re-placed it.
            self.frontend.shard_trouble(self.shard)
            await self._send_client(protocol.error_reply(
                first_frame.get("id"), ErrorCode.RETRY_AFTER,
                f"shard {self.shard.name} is unreachable; retry",
                retry_after_s=cfg.retry_after_s,
            ))
            return
        self.backend = backend
        self._track_outbound(first_frame)
        backend.writer.write(protocol.encode_frame(first_frame))
        await backend.writer.drain()
        c2s = asyncio.ensure_future(self._client_to_shard())
        s2c = asyncio.ensure_future(self._shard_to_client())
        try:
            await asyncio.wait(
                {c2s, s2c}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            await self.close()
            for task in (c2s, s2c):
                task.cancel()
            await asyncio.gather(c2s, s2c, return_exceptions=True)

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._backend_changed.set()
        backend, self.backend = self.backend, None
        if backend is not None:
            with contextlib.suppress(Exception):
                await backend.close()
        with contextlib.suppress(Exception):
            self.client_writer.close()

    # ------------------------------------------------------------------
    # relay legs
    # ------------------------------------------------------------------
    async def _client_to_shard(self) -> None:
        cfg = self.frontend.cfg
        while not self._closed:
            try:
                buf = await protocol.read_raw_frame(
                    self.client_reader, None, cfg.max_frame_bytes
                )
            except (ProtocolError, ConnectionError, ValueError,
                    asyncio.IncompleteReadError):
                return
            if not buf:
                return  # client hung up
            try:
                frame = protocol.decode_any_frame(buf, cfg.max_frame_bytes)
            except ProtocolError as exc:
                # Undecodable but completely-read frame: answer in the
                # shard's stead so the legs never disagree about it.
                await self._send_client(
                    protocol.error_reply(None, exc.code, exc.message)
                )
                continue
            self._track_outbound(frame)
            async with self._backend_lock:
                backend = self.backend
                if backend is None or backend.closed:
                    return
                try:
                    backend.writer.write(self._encode_shard(frame))
                    await backend.writer.drain()
                except (ConnectionError, RuntimeError):
                    return

    async def _shard_to_client(self) -> None:
        cfg = self.frontend.cfg
        while not self._closed:
            backend = self.backend
            if backend is None:
                # between legs during a migration
                await self._backend_changed.wait()
                self._backend_changed.clear()
                continue
            try:
                buf = await protocol.read_raw_frame(
                    backend.reader, None, cfg.max_frame_bytes
                )
            except (ProtocolError, ConnectionError, ValueError,
                    asyncio.IncompleteReadError):
                buf = b""
            if not buf:
                if self._closed:
                    return
                if self._migrating or self.backend is not backend:
                    continue  # the old leg died as part of a migration
                # The shard died under a live client: drop the client so
                # its resilient layer re-dials the front-end and the
                # placer re-places it on a live shard.
                self.frontend.shard_trouble(self.shard)
                return
            try:
                reply = protocol.decode_any_frame(buf, cfg.max_frame_bytes)
            except ProtocolError:
                continue
            rid = reply.get("id")
            if isinstance(rid, int) and rid < 0:
                if not self._handle_injected(rid, reply):
                    return
                continue
            self._track_reply(reply)
            if not await self._send_client(reply):
                return
            if (
                reply.get("ok") and reply.get("binary")
                and not self.client_binary
            ):
                # hello ack forwarded: both legs switch to binary framing
                self.client_binary = True
                self.shard_write_binary = True

    async def _send_client(self, frame: Dict[str, Any]) -> bool:
        encode = (
            protocol.encode_binary_frame if self.client_binary
            else protocol.encode_frame
        )
        try:
            self.client_writer.write(encode(frame))
            await self.client_writer.drain()
            return True
        except (ConnectionError, RuntimeError):
            return False

    def _encode_shard(self, frame: Dict[str, Any]) -> bytes:
        if self.shard_write_binary:
            return protocol.encode_binary_frame(frame)
        return protocol.encode_frame(frame)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _track_outbound(self, frame: Dict[str, Any]) -> None:
        op = frame.get("op")
        rid = frame.get("id")
        if op == "hello":
            self._hello_frame = dict(frame)
        elif op == "pp_begin" and isinstance(rid, int):
            self._inflight[rid] = (dict(frame), time.monotonic())
            demand = frame.get("demand_bytes")
            resource = frame.get("resource", "llc")
            if isinstance(demand, int) and demand > 0:
                self.frontend.note_demand(
                    self.client_id, {str(resource): demand}
                )
        elif op == "pp_end" and isinstance(rid, int):
            pp_id = frame.get("pp_id")
            if isinstance(pp_id, int):
                self._ending[rid] = pp_id

    def _track_reply(self, reply: Dict[str, Any]) -> None:
        rid = reply.get("id")
        if rid in self._inflight:
            del self._inflight[rid]
            if reply.get("ok") and isinstance(reply.get("pp_id"), int):
                self._admitted.add(reply["pp_id"])
        elif rid in self._ending:
            pp_id = self._ending.pop(rid)
            error = (reply.get("error") or {}).get("code")
            if reply.get("ok") or error == ErrorCode.UNKNOWN_PERIOD:
                self._admitted.discard(pp_id)

    def _handle_injected(self, rid: int, reply: Dict[str, Any]) -> bool:
        """Process a reply to a pump-injected frame; False kills the pump."""
        kind = self._swallow.pop(rid, None)
        if kind != "hello":
            return True  # stale/unknown injected reply: ignore
        if not reply.get("ok"):
            return False  # migration hello rejected: drop the client
        return True

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------
    def parked_demand(self, min_age_s: float) -> Optional[Dict[str, int]]:
        """The demand of this client's lone parked begin, if migratable.

        Migration is only sound when the client's *entire* footprint on
        its shard is one parked (uncharged) ``pp_begin``: admitted periods
        hold capacity that cannot move, and anonymous clients have no
        identity to re-bind on the target shard.
        """
        if (
            self._closed or self._migrating or not self.named
            or self._admitted or len(self._inflight) != 1
        ):
            return None
        frame, since = next(iter(self._inflight.values()))
        if time.monotonic() - since < min_age_s:
            return None
        demand = frame.get("demand_bytes")
        if not isinstance(demand, int) or demand <= 0:
            return None
        return {str(frame.get("resource", "llc")): demand}

    async def migrate_to(self, target: ShardState) -> bool:
        """Move this client's parked begin to ``target``.

        Closing the old leg makes the old shard cancel the parked period
        (it holds no capacity); the injected hello re-binds the client's
        identity on the target, and the parked begin is re-sent verbatim
        — original request id, original idempotency token — so the reply
        reaches the waiting client as if nothing happened.
        """
        if self._closed or self._migrating or self._hello_frame is None:
            return False
        self._migrating = True
        try:
            async with self._backend_lock:
                cfg = self.frontend.cfg
                old, self.backend = self.backend, None
                if old is not None:
                    with contextlib.suppress(Exception):
                        await old.close()
                try:
                    backend = await ServeClient.connect(
                        timeout=cfg.probe_timeout_s,
                        **_connect_kwargs(target.address),
                    )
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    await self.close()  # backendless: client must re-place
                    return False
                inject_id = next(self._inject_ids)
                self._swallow[inject_id] = "hello"
                hello = dict(self._hello_frame)
                hello["id"] = inject_id
                # The hello travels in NDJSON (fresh connection), but the
                # shard switches to binary the moment it sends the ack —
                # so every frame *after* the hello must already be in the
                # client's negotiated encoding.
                self.shard_write_binary = self.client_binary
                backend.writer.write(protocol.encode_frame(hello))
                for rid in sorted(self._inflight):
                    frame, _ = self._inflight[rid]
                    backend.writer.write(self._encode_shard(frame))
                    self._inflight[rid] = (frame, time.monotonic())
                await backend.writer.drain()
                self.shard = target
                self.backend = backend
                self._backend_changed.set()
            return True
        except (ConnectionError, RuntimeError):
            await self.close()
            return False
        finally:
            self._migrating = False


class ClusterFrontend:
    """The placer process: accepts clients, assigns shards, relays."""

    def __init__(self, cfg: ClusterConfig) -> None:
        if not cfg.shards:
            raise ClusterError("ClusterConfig needs at least one shard")
        self.cfg = cfg
        self.placer = DemandAwarePlacer(
            [ShardState(address=a) for a in cfg.shards], seed=cfg.seed
        )
        self.metrics = MetricsRegistry()
        self.c_placements = self.metrics.counter(
            "placements_total", "clients assigned to a shard"
        )
        self.c_redirects = self.metrics.counter(
            "redirects_total", "hello replies answered with REDIRECT"
        )
        self.c_forwards = self.metrics.counter(
            "forwards_total", "clients relayed through a forwarding pump"
        )
        self.c_migrations = self.metrics.counter(
            "migrations_total", "parked clients moved to a shard with room"
        )
        self.c_migration_failures = self.metrics.counter(
            "migration_failures_total", "migrations that lost the client"
        )
        self.c_requests = self.metrics.counter(
            "requests_total", "frames handled by the front-end itself"
        )
        self.c_brownout_shed = self.metrics.counter(
            "brownout_shed_total", "new clients shed with OVERLOAD"
        )
        self.c_shard_restarts = self.metrics.counter(
            "shard_restarts_total", "dead shards restarted by the supervisor"
        )
        self.c_shard_drains = self.metrics.counter(
            "shard_drains_total", "planned single-shard drains"
        )
        self.c_rebalances = self.metrics.counter(
            "rebalance_migrations_total",
            "migrations triggered by the fragmentation threshold",
        )
        #: brownout state: set/cleared by the health loop
        self._brownout = False
        self._brownout_streak = 0
        #: per-resource high-water mark of declared demand, the yardstick
        #: for "could any shard even fit a typical new client?"
        self._peak_demand: Dict[str, int] = {}
        #: supervision state: shard name -> async restart hook
        self._restarters: Dict[str, Any] = {}
        self._restarting: set = set()
        self._quarantined: set = set()
        self._restart_streak: Dict[str, int] = {}
        self._last_restart: Dict[str, float] = {}
        self._restart_tasks: set = set()
        self._frag_peak = 0.0
        self.metrics.gauge(
            "fragmentation", "1 - largest_free/total_free over live shards",
            fn=self.placer.fragmentation,
        )
        self.metrics.gauge(
            "fragmentation_peak", "high-water mark of the fragmentation gauge",
            fn=lambda: self._frag_peak,
        )
        self.metrics.gauge(
            "shards_quarantined", "crash-looping shards held out of service",
            fn=lambda: float(len(self._quarantined)),
        )
        self.metrics.gauge(
            "shards_draining", "shards in a planned drain/restart cycle",
            fn=lambda: float(
                sum(1 for s in self.placer.shards.values() if s.draining)
            ),
        )
        self.metrics.gauge(
            "brownout", "1 while the front-end is shedding new clients",
            fn=lambda: float(self._brownout),
        )
        self.metrics.gauge(
            "shards_alive", fn=lambda: float(len(self.placer.alive_shards()))
        )
        self.metrics.gauge("pumps", fn=lambda: float(len(self._pumps)))
        for address in cfg.shards:
            shard = self.placer.shards[address.name]
            self.metrics.gauge(
                f"shard_usage_bytes:{address.name}",
                fn=lambda s=shard: float(s.usage.get("llc", 0)),
            )
            self.metrics.gauge(
                f"shard_waiting:{address.name}",
                fn=lambda s=shard: float(s.waiting),
            )
            self.metrics.gauge(
                f"shard_alive:{address.name}",
                fn=lambda s=shard: float(s.alive),
            )
        self._pumps: set = set()
        self._servers: List[asyncio.AbstractServer] = []
        self._unix_path: Optional[str] = None
        self._background: List[asyncio.Task] = []
        self._anon_ids = itertools.count(1)
        self.draining = False
        self._drain_requested = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle (mirrors AdmissionServer)
    # ------------------------------------------------------------------
    async def start(
        self,
        unix_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
    ) -> None:
        """Probe the shards once, then bind and start background loops."""
        if unix_path is None and host is None:
            raise ServeError("need a unix socket path and/or a TCP host/port")
        await self._health_sweep()
        if unix_path is not None:
            if os.path.exists(unix_path):
                os.unlink(unix_path)
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_client, path=unix_path,
                    limit=self.cfg.max_frame_bytes,
                )
            )
            self._unix_path = unix_path
        if host is not None:
            if port is None:
                raise ServeError("TCP transport needs a port")
            self._servers.append(
                await asyncio.start_server(
                    self._handle_client, host=host, port=port,
                    limit=self.cfg.max_frame_bytes,
                )
            )
        self._background.append(asyncio.ensure_future(self._health_loop()))
        self._background.append(asyncio.ensure_future(self._balance_loop()))
        self._background.append(asyncio.ensure_future(self._supervise_loop()))
        if self.cfg.metrics_json:
            self._background.append(asyncio.ensure_future(self._metrics_loop()))

    @property
    def tcp_port(self) -> Optional[int]:
        for server in self._servers:
            for sock in server.sockets or ():
                if sock.family.name.startswith("AF_INET"):
                    return sock.getsockname()[1]
        return None

    def request_drain(self) -> None:
        self._drain_requested.set()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    async def run_until_drained(self) -> None:
        await self._drain_requested.wait()
        self.draining = True
        for server in self._servers:
            server.close()
        for pump in list(self._pumps):
            await pump.close()
        for server in self._servers:
            await server.wait_closed()
        stopping = list(self._background) + list(self._restart_tasks)
        for task in stopping:
            task.cancel()
        await asyncio.gather(*stopping, return_exceptions=True)
        if self._unix_path and os.path.exists(self._unix_path):
            os.unlink(self._unix_path)
        if self.cfg.metrics_json:
            self.metrics.dump_json(self.cfg.metrics_json)

    # ------------------------------------------------------------------
    # placement hooks
    # ------------------------------------------------------------------
    def note_demand(self, client_id: str, demand: Dict[str, int]) -> None:
        """Fold a declared pp_begin demand into the client's profile."""
        for resource, amount in demand.items():
            if amount > self._peak_demand.get(resource, 0):
                self._peak_demand[resource] = amount
        with contextlib.suppress(ClusterError):
            self.placer.observe_demand(client_id, demand)

    def shard_trouble(self, shard: ShardState) -> None:
        """A data-path failure implicating ``shard``: mark it dead now.

        Marking it dead immediately keeps the placer from routing new
        clients at a socket that just failed; the supervisor (or the
        next successful probe) resurrects it.  A *draining* shard is
        exempt — its connections are expected to drop during a planned
        restart, and only the drain/restart cycle decides its liveness.
        """
        if shard.draining:
            return
        self.placer.mark_dead(shard.name)

    # ------------------------------------------------------------------
    # background loops
    # ------------------------------------------------------------------
    async def _shard_call(
        self,
        shard: ShardState,
        op: str,
        timeout: Optional[float] = None,
        unreachable: Any = None,
    ) -> Any:
        """Connect to ``shard``, make one ``op`` call, close again.

        Returns the reply; None when the call fails, and ``unreachable``
        when the shard does not accept the connection.
        """
        try:
            client = await ServeClient.connect(
                timeout=self.cfg.probe_timeout_s,
                **_connect_kwargs(shard.address),
            )
        except (ConnectionError, OSError, asyncio.TimeoutError):
            return unreachable
        try:
            return await client.call(op, timeout=timeout)
        except Exception:
            return None
        finally:
            with contextlib.suppress(Exception):
                await client.close()

    async def _probe(self, shard: ShardState) -> Optional[Dict[str, Any]]:
        """One health probe: a ``query``; None when unreachable."""
        return await self._shard_call(
            shard, "query", timeout=self.cfg.probe_timeout_s
        )

    async def _health_sweep(self) -> None:
        # Draining and mid-restart shards are skipped entirely: a planned
        # restart must not be mistaken for a death (that would skew
        # shards_alive and could flip brownout on), and only the
        # drain/restart cycle decides their liveness transitions.
        shards = [
            s for s in self.placer.shards.values()
            if not s.draining and s.name not in self._restarting
        ]
        replies = await asyncio.gather(
            *(self._probe(s) for s in shards), return_exceptions=True
        )
        for shard, reply in zip(shards, replies):
            if not isinstance(reply, dict):
                self.placer.observe(shard.name, alive=False)
                continue
            self._fold_probe(shard, reply)
            # a shard that answers probes is serving: a stale quarantine
            # (operator intervention, external restart) lifts itself
            self._quarantined.discard(shard.name)
        self._frag_peak = max(self._frag_peak, self.placer.fragmentation())
        self._update_brownout()

    def _fold_probe(self, shard: ShardState, reply: Dict[str, Any]) -> None:
        """Fold one successful query reply into the placer's shard model."""
        resources = reply.get("resources") or {}
        usage = {
            kind: entry.get("usage_bytes", 0)
            for kind, entry in resources.items()
        }
        capacity = {
            kind: entry.get("capacity_bytes", 0)
            for kind, entry in resources.items()
        }
        self.placer.observe(
            shard.name,
            usage=usage,
            capacity=capacity,
            waiting=reply.get("waiting"),
            open_periods=reply.get("open_periods"),
            alive=True,
        )

    def _update_brownout(self) -> None:
        """Hysteretic brownout decision, one call per health sweep.

        Saturated = every live shard is infeasible for the observed peak
        demand AND fragmentation holds at/above the threshold.  Brownout
        engages only after ``brownout_sweeps`` consecutive saturated
        sweeps (so one transient spike doesn't shed clients) and releases
        the moment any headroom returns.
        """
        threshold = self.cfg.brownout_fragmentation
        if threshold is None:
            return
        if self._restarting or any(
            s.draining for s in self.placer.shards.values()
        ):
            # planned topology change: capacity is transiently reduced by
            # design, so neither advance nor reset the saturation streak
            return
        live = self.placer.alive_shards()
        saturated = (
            bool(live)
            and bool(self._peak_demand)
            and not any(s.fits_observed(self._peak_demand) for s in live)
            and self.placer.fragmentation() >= threshold
        )
        if saturated:
            self._brownout_streak += 1
            if self._brownout_streak >= self.cfg.brownout_sweeps:
                self._brownout = True
        else:
            self._brownout_streak = 0
            self._brownout = False

    def _shed_new_client(self, client_id: str) -> bool:
        """Should this client be shed right now?  Known (already-assigned)
        clients ride out the brownout; only new arrivals are shed."""
        return self._brownout and client_id not in self.placer.assignments

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.cfg.health_interval_s)
            await self._health_sweep()

    async def _balance_loop(self) -> None:
        while True:
            await asyncio.sleep(self.cfg.balance_interval_s)
            if not self.cfg.migration:
                continue
            threshold = self.cfg.rebalance_fragmentation
            fragmented = (
                threshold is not None
                and self.placer.fragmentation() >= threshold
            )
            # fragmented capacity: don't wait for parked begins to age —
            # move them now, before the slivers deadlock each other
            min_age = 0.0 if fragmented else self.cfg.migrate_after_s
            await self._migrate_parked(min_age, rebalance=fragmented)

    async def _migrate_parked(
        self,
        min_age_s: float,
        only_shard: Optional[str] = None,
        rebalance: bool = False,
    ) -> int:
        """One migration sweep over the forwarding pumps; returns moves."""
        moved = 0
        for pump in list(self._pumps):
            if only_shard is not None and pump.shard.name != only_shard:
                continue
            demand = pump.parked_demand(min_age_s)
            if demand is None:
                continue
            target = self.placer.migration_target(pump.client_id, demand)
            if target is None:
                continue
            if await pump.migrate_to(target):
                self.placer.migrate(pump.client_id, target)
                self.c_migrations.inc()
                if rebalance:
                    self.c_rebalances.inc()
                moved += 1
            else:
                self.c_migration_failures.inc()
        return moved

    async def _metrics_loop(self) -> None:
        while True:
            await asyncio.sleep(self.cfg.metrics_interval_s)
            self.metrics.dump_json(self.cfg.metrics_json)

    # ------------------------------------------------------------------
    # shard supervision
    # ------------------------------------------------------------------
    def register_restarter(self, name: str, restarter) -> None:
        """Arm the supervisor for shard ``name``.

        ``restarter`` is an async callable that brings the (dead or
        drained) shard process back up on its original address, where it
        recovers by replaying its own journal.  Once at least one
        restarter is registered the supervise loop restarts dead shards
        automatically; :meth:`drain_shard`/:meth:`rolling_restart` use
        the same hooks for planned cycles.
        """
        if name not in self.placer.shards:
            raise ClusterError(f"unknown shard {name!r}")
        self._restarters[name] = restarter

    @property
    def quarantined(self) -> set:
        """Names of crash-looping shards held out of service."""
        return set(self._quarantined)

    async def disarm_supervision(self) -> None:
        """Stop auto-restarting shards and wait out in-flight restarts.

        Call before a planned whole-cluster teardown: otherwise the
        supervisor resurrects every shard the shutdown just drained.
        """
        self._restarters.clear()
        if self._restart_tasks:
            await asyncio.gather(
                *list(self._restart_tasks), return_exceptions=True
            )

    async def _supervise_loop(self) -> None:
        while True:
            await asyncio.sleep(self.cfg.supervise_interval_s)
            for shard in self.placer.shards.values():
                name = shard.name
                if (
                    shard.alive or shard.draining
                    or name in self._restarting
                    or name in self._quarantined
                    or name not in self._restarters
                ):
                    continue
                self._restarting.add(name)
                task = asyncio.ensure_future(self._supervised_restart(shard))
                self._restart_tasks.add(task)
                task.add_done_callback(self._restart_tasks.discard)

    async def _supervised_restart(self, shard: ShardState) -> bool:
        """One supervised restart of a dead shard: backoff, flap guard,
        restarter, probe-until-ready, revive.  Crash-looping shards (a
        re-death inside ``crash_loop_window_s`` of the last restart)
        escalate the backoff and are quarantined after
        ``quarantine_after`` strikes instead of flapping forever."""
        name = shard.name
        try:
            now = time.monotonic()
            last = self._last_restart.get(name)
            if last is not None and now - last < self.cfg.crash_loop_window_s:
                self._restart_streak[name] = (
                    self._restart_streak.get(name, 0) + 1
                )
            else:
                self._restart_streak[name] = 0
            streak = self._restart_streak[name]
            if streak >= self.cfg.quarantine_after:
                self._quarantined.add(name)
                return False
            await asyncio.sleep(min(
                self.cfg.restart_backoff_s * (2 ** streak),
                self.cfg.restart_backoff_cap_s,
            ))
            # flap guard: a probe that answers means the "death" was a
            # transient (connection hiccup, mid-compaction stall) — the
            # process never left, so re-register it instead of restarting
            reply = await self._probe(shard)
            if reply is not None:
                self._fold_probe(shard, reply)
                self.placer.revive(name)
                return True
            self._last_restart[name] = time.monotonic()
            restarter = self._restarters.get(name)
            if restarter is None:
                return False  # disarmed while we backed off
            try:
                await restarter()
            except Exception:
                return False
            if not await self._await_ready(shard):
                return False
            self.placer.revive(name)
            self.c_shard_restarts.inc()
            return True
        finally:
            self._restarting.discard(name)

    async def _await_ready(self, shard: ShardState) -> bool:
        """Probe a restarting shard until it answers (bounded)."""
        deadline = time.monotonic() + self.cfg.restart_ready_timeout_s
        while time.monotonic() < deadline:
            reply = await self._probe(shard)
            if reply is not None:
                self._fold_probe(shard, reply)
                return True
            await asyncio.sleep(0.05)
        return False

    # ------------------------------------------------------------------
    # planned drain / rolling restart
    # ------------------------------------------------------------------
    async def drain_shard(
        self, name: str, *, grace_s: Optional[float] = None
    ) -> bool:
        """Planned drain of one shard.

        The placer stops placing onto it immediately (sticky clients
        re-place on their next hello), parked forwarded clients migrate
        away via the normal ``migrate_to`` path, running periods get a
        bounded grace window, and only then is the shard asked to drain.
        Returns True when the shard acknowledged the drain (or was
        already down).
        """
        shard = self.placer.shards.get(name)
        if shard is None:
            raise ClusterError(f"unknown shard {name!r}")
        grace = self.cfg.shard_drain_grace_s if grace_s is None else grace_s
        self.placer.mark_draining(name)
        self.c_shard_drains.inc()
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            await self._migrate_parked(0.0, only_shard=name)
            reply = await self._probe(shard)
            if reply is None:
                break  # already down (crashed mid-drain)
            if (
                int(reply.get("open_periods") or 0) == 0
                and not any(
                    p.shard.name == name for p in self._pumps
                    if not p._closed
                )
            ):
                break
            await asyncio.sleep(0.05)
        # an unreachable shard has nothing left to drain
        acknowledged = (
            await self._shard_call(shard, "drain", unreachable={})
        ) is not None
        # the shard is going down now; ``draining`` stays set so the
        # health sweep keeps its hands off until the restart revives it
        self.placer.mark_dead(name)
        return acknowledged

    async def restart_shard(self, name: str) -> bool:
        """Restart a drained/dead shard via its registered restarter and
        re-register it with the placer once it answers probes."""
        restarter = self._restarters.get(name)
        if restarter is None:
            raise ClusterError(f"no restarter registered for shard {name!r}")
        shard = self.placer.shards[name]
        try:
            await restarter()
        except Exception:
            self.placer.mark_draining(name, False)  # unplanned now
            return False
        if not await self._await_ready(shard):
            self.placer.mark_draining(name, False)
            return False
        self.placer.revive(name)
        self.c_shard_restarts.inc()
        return True

    async def rolling_restart(
        self, *, grace_s: Optional[float] = None
    ) -> Dict[str, bool]:
        """Drain, restart and rejoin every shard, one at a time.

        Returns shard name -> True when that shard completed its cycle.
        Shards without a registered restarter are skipped (False).
        """
        results: Dict[str, bool] = {}
        for name in sorted(self.placer.shards):
            if name in self._quarantined:
                results[name] = False
                continue
            if name not in self._restarters:
                results[name] = False
                continue
            await self.drain_shard(name, grace_s=grace_s)
            results[name] = await self.restart_shard(name)
        return results

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Dispatch one front-end connection.

        The front-end itself always speaks NDJSON: binary framing is a
        per-shard negotiation that rides through the pump.  The first
        shard-addressed frame (``hello``, ``pp_begin``, ``pp_end``)
        flips the connection into forward mode and hands it to a pump;
        ``query``/``stats``/``drain`` are answered here with aggregates.
        """
        async def send(frame: Dict[str, Any]) -> None:
            try:
                writer.write(protocol.encode_frame(frame))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass

        try:
            while not self.draining:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError):
                    return
                except ValueError:
                    await send(protocol.error_reply(
                        None, ErrorCode.FRAME_TOO_LARGE,
                        f"request frame exceeds "
                        f"{self.cfg.max_frame_bytes} bytes",
                    ))
                    return
                if not line:
                    return
                self.c_requests.inc()
                try:
                    frame = protocol.decode_frame(
                        line, self.cfg.max_frame_bytes
                    )
                    request = protocol.parse_request(frame)
                except ProtocolError as exc:
                    await send(protocol.error_reply(
                        None, exc.code, exc.message
                    ))
                    continue
                if request.op == "hello":
                    handed_off = await self._op_hello(
                        request, frame, reader, writer, send
                    )
                    if handed_off:
                        return
                elif request.op in ("pp_begin", "pp_end"):
                    # Anonymous fast path: place under a synthetic id and
                    # forward — exactly what a bare server does for
                    # clients that skip hello.
                    client_id = f"anon-{next(self._anon_ids)}"
                    shard = await self._place(client_id, request.id, send)
                    if shard is not None:
                        await self._forward(
                            client_id, False, frame, reader, writer, shard
                        )
                    return
                elif request.op == "query":
                    await send(await self._op_query(request))
                elif request.op == "stats":
                    await send(protocol.ok_reply(
                        request.id, stats=await self._op_stats()
                    ))
                elif request.op == "drain":
                    await send(await self._op_drain(request))
                else:  # heartbeat before hello
                    await send(protocol.error_reply(
                        request.id, ErrorCode.NOT_BOUND,
                        "say hello before heartbeat",
                    ))
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    async def _op_hello(
        self,
        request: protocol.Request,
        frame: Dict[str, Any],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        send,
    ) -> bool:
        """Place the client; returns True when the connection was handed
        to a pump (the caller must stop reading)."""
        demand_hint: Dict[str, int] = {}
        hint = frame.get("demand_bytes")
        if isinstance(hint, int) and not isinstance(hint, bool) and hint > 0:
            demand_hint["llc"] = hint
        shard = await self._place(request.client, request.id, send, demand_hint)
        if shard is None:
            return False
        if frame.get("redirect") is True:
            self.c_redirects.inc()
            await send(protocol.error_reply(
                request.id, ErrorCode.REDIRECT,
                f"assigned to shard {shard.name}",
                shard=shard.address.to_fields(),
            ))
            return False  # the client hangs up and dials the shard
        await self._forward(request.client, True, frame, reader, writer, shard)
        return True

    async def _place(
        self,
        client_id: str,
        request_id: Optional[int],
        send,
        demand_hint: Optional[Dict[str, int]] = None,
    ) -> Optional[ShardState]:
        """Place a client on a shard, or shed it: reply ``OVERLOAD`` in a
        brownout, ``RETRY_AFTER`` with no live shard, and return None."""
        if self._shed_new_client(client_id):
            self.c_brownout_shed.inc()
            await send(protocol.error_reply(
                request_id, ErrorCode.OVERLOAD,
                "cluster is in brownout: shedding new clients",
                retry_after_s=self.cfg.brownout_retry_s,
            ))
            return None
        try:
            shard = self.placer.place(client_id, demand_hint)
        except ClusterError:
            await send(protocol.error_reply(
                request_id, ErrorCode.RETRY_AFTER,
                "no live admission shard; retry",
                retry_after_s=self.cfg.retry_after_s,
            ))
            return None
        self.c_placements.inc()
        return shard

    async def _forward(
        self,
        client_id: str,
        named: bool,
        first_frame: Dict[str, Any],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        shard: ShardState,
    ) -> None:
        self.c_forwards.inc()
        pump = _ForwardPump(self, client_id, named, reader, writer, shard)
        self._pumps.add(pump)
        try:
            await pump.run(first_frame)
        finally:
            self._pumps.discard(pump)
            if named:
                # keep the (sticky) assignment but stop reserving scored
                # capacity for a client that is no longer connected
                self.placer.release(client_id)
            else:
                # a synthetic identity never comes back
                self.placer.forget(client_id)

    # ------------------------------------------------------------------
    # aggregation verbs
    # ------------------------------------------------------------------
    async def _op_query(self, request: protocol.Request) -> Dict[str, Any]:
        if request.pp_id is not None:
            return protocol.error_reply(
                request.id, ErrorCode.BAD_REQUEST,
                "per-period query must go through the period's shard",
            )
        shards = list(self.placer.shards.values())
        replies = await asyncio.gather(
            *(self._probe(s) for s in shards), return_exceptions=True
        )
        resources: Dict[str, Dict[str, Any]] = {}
        totals = {
            "open_periods": 0, "waiting": 0,
            "forced_admissions": 0, "clients": 0,
        }
        per_shard: Dict[str, Any] = {}
        for shard, reply in zip(shards, replies):
            if not isinstance(reply, dict):
                per_shard[shard.name] = None
                continue
            for key in totals:
                value = reply.get(key)
                if isinstance(value, int):
                    totals[key] += value
            for kind, entry in (reply.get("resources") or {}).items():
                agg = resources.setdefault(
                    kind, {"usage_bytes": 0, "capacity_bytes": 0, "waiting": 0}
                )
                agg["usage_bytes"] += entry.get("usage_bytes", 0)
                agg["capacity_bytes"] += entry.get("capacity_bytes", 0)
                agg["waiting"] += entry.get("waiting", 0)
            per_shard[shard.name] = {
                "open_periods": reply.get("open_periods"),
                "waiting": reply.get("waiting"),
                "resources": reply.get("resources"),
            }
        for agg in resources.values():
            cap = agg["capacity_bytes"]
            agg["utilization"] = agg["usage_bytes"] / cap if cap else 0.0
        return protocol.ok_reply(
            request.id,
            cluster=True,
            resources=resources,
            shards=per_shard,
            placer=self.placer.snapshot(),
            **totals,
        )

    async def _op_stats(self) -> Dict[str, Any]:
        shards = list(self.placer.shards.values())
        replies = await asyncio.gather(
            *(self._shard_call(s, "stats") for s in shards),
            return_exceptions=True,
        )
        per_shard = {
            shard.name: (
                reply.get("stats") if isinstance(reply, dict) else None
            )
            for shard, reply in zip(shards, replies)
        }
        counters: Dict[str, int] = {}
        for reply in per_shard.values():
            for name, value in ((reply or {}).get("counters") or {}).items():
                counters[name] = counters.get(name, 0) + value
        stats = self.metrics.snapshot()
        return {
            **stats,
            "shard_counters": counters,
            "shards": per_shard,
        }

    async def _op_drain(self, request: protocol.Request) -> Dict[str, Any]:
        """Drain admin verb, three modes.

        * ``{"op": "drain"}`` — fan out to every shard, then drain the
          front-end itself (whole-cluster shutdown, the original verb).
        * ``{"op": "drain", "shard": "shard1"}`` — rolling-restart *one*
          shard: planned drain, restart via its registered restarter,
          rejoin.  The cluster keeps serving throughout.
        * ``{"op": "drain", "rolling": true}`` — a full rolling restart
          over every shard, one at a time.
        """
        raw = request.raw
        grace = raw.get("grace_s")
        grace_s = float(grace) if isinstance(grace, (int, float)) else None
        target = raw.get("shard")
        if isinstance(target, str):
            if target not in self.placer.shards:
                return protocol.error_reply(
                    request.id, ErrorCode.BAD_REQUEST,
                    f"unknown shard {target!r}",
                )
            drained = await self.drain_shard(target, grace_s=grace_s)
            restarted = False
            if target in self._restarters:
                restarted = await self.restart_shard(target)
            return protocol.ok_reply(
                request.id, shard=target,
                drained=drained, restarted=restarted,
            )
        if raw.get("rolling"):
            results = await self.rolling_restart(grace_s=grace_s)
            return protocol.ok_reply(
                request.id, rolling=True, shards=results,
                rolled=sum(1 for ok in results.values() if ok),
            )
        shards = list(self.placer.shards.values())
        results = await asyncio.gather(
            *(self._shard_call(s, "drain") for s in shards),
            return_exceptions=True,
        )
        drained = {
            shard.name: isinstance(result, dict)
            for shard, result in zip(shards, results)
        }
        self.request_drain()
        return protocol.ok_reply(request.id, draining=True, shards=drained)


@dataclass
class LocalCluster:
    """An in-process cluster: N admission shards plus their front-end."""

    frontend: ClusterFrontend
    servers: List[AdmissionServer] = field(default_factory=list)
    #: shards swapped out by a restart whose sanitizer was dirty
    faulted: int = 0

    def request_drain(self) -> None:
        self.frontend.request_drain()

    def install_signal_handlers(self) -> None:
        self.frontend.install_signal_handlers()

    async def rolling_restart(
        self, *, grace_s: Optional[float] = None
    ) -> Dict[str, bool]:
        """Drive a full rolling restart cycle over every shard."""
        return await self.frontend.rolling_restart(grace_s=grace_s)

    async def run_until_drained(self) -> int:
        """Serve until the front-end drains, then drain every shard.

        Returns the worst shard exit disposition: 0 when every shard
        (including any swapped out by a restart) drained with a clean
        sanitizer, 1 otherwise (mirrors the CLI contract of a
        standalone ``repro serve``).
        """
        await self.frontend.run_until_drained()
        worst = 1 if self.faulted else 0
        for server in self.servers:
            server.request_drain()
            await server.run_until_drained()
            sanitizer = server.service.sanitizer
            if sanitizer is not None and not sanitizer.ok:
                worst = 1
        return worst


def _local_restarter(cluster: LocalCluster, shard_cfg: ServeConfig, path: str):
    """Restart hook for one in-process shard of a LocalCluster.

    The journal handoff is sequenced, never concurrent: the old server
    instance is fully drained (or was already aborted/SIGKILL-simulated,
    in which case its journal handle is abandoned) before the fresh
    instance opens the same journal path and replays it.  The old
    instance is looked up by shard name, so tests that prune
    ``cluster.servers`` stay correct.
    """
    name = shard_cfg.shard_name

    async def restart() -> None:
        old = next(
            (s for s in cluster.servers if s.cfg.shard_name == name), None
        )
        if old is not None and not old.aborted:
            old.request_drain()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    old.run_until_drained(),
                    old.cfg.drain_grace_s + 5.0,
                )
            sanitizer = old.service.sanitizer
            if sanitizer is not None and not sanitizer.ok:
                cluster.faulted += 1
        server = AdmissionServer(shard_cfg)
        await server.start(unix_path=path)
        if old is not None:
            cluster.servers[cluster.servers.index(old)] = server
        else:
            cluster.servers.append(server)

    return restart


async def start_local_cluster(
    cfg: ServeConfig,
    n_shards: int,
    socket_path: str,
    *,
    seed: int = 0,
    cluster_cfg: Optional[ClusterConfig] = None,
    cluster_overrides: Optional[Dict[str, Any]] = None,
    supervise: bool = True,
) -> LocalCluster:
    """Start N in-process shards plus a front-end on ``socket_path``.

    Shard ``i`` listens on ``<socket_path>.shard<i>`` with journal
    ``<journal>.shard<i>`` (when journaling is on).  ``cfg`` describes
    *one* shard — capacity is per shard, so a 3-shard cluster manages
    3x the capacity of a standalone server with the same config.

    With ``supervise`` (the default) every shard gets a restarter
    registered with the front-end: dead shards are restarted from their
    journal automatically and the cluster supports planned single-shard
    drains and rolling restarts.
    """
    if n_shards < 1:
        raise ClusterError(f"need at least 1 shard, got {n_shards}")
    servers: List[AdmissionServer] = []
    addresses: List[ShardAddress] = []
    shard_cfgs: List[ServeConfig] = []
    for i in range(n_shards):
        name = f"shard{i}"
        shard_cfg = dataclasses.replace(
            cfg,
            shard_name=name,
            journal_path=(
                f"{cfg.journal_path}.{name}" if cfg.journal_path else None
            ),
            metrics_json=None,  # the front-end owns the metrics file
        )
        server = AdmissionServer(shard_cfg)
        path = f"{socket_path}.{name}"
        await server.start(unix_path=path)
        servers.append(server)
        addresses.append(ShardAddress(name=name, unix_path=path))
        shard_cfgs.append(shard_cfg)
    if cluster_cfg is None:
        cluster_cfg = ClusterConfig(
            shards=tuple(addresses),
            seed=seed,
            metrics_json=cfg.metrics_json,
            **(cluster_overrides or {}),
        )
    frontend = ClusterFrontend(cluster_cfg)
    await frontend.start(unix_path=socket_path)
    cluster = LocalCluster(frontend=frontend, servers=servers)
    if supervise:
        for address, shard_cfg in zip(addresses, shard_cfgs):
            frontend.register_restarter(
                address.name,
                _local_restarter(cluster, shard_cfg, address.unix_path),
            )
    return cluster
