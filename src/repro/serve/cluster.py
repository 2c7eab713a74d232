"""Cluster front-end: demand-aware placement across admission shards.

One :class:`~repro.serve.server.AdmissionServer` is one simulated socket
(one LLC, one journal, one lease table).  This module scales the service
out: N admission shards behind one placer front-end that owns *which*
shard each client charges, using the dominant-remaining-resource scoring
of :mod:`repro.serve.placer`.

The front-end speaks the same wire protocol as a shard, so every existing
client works unchanged, and it reaches a shard one way: **REDIRECT**.
Every ``hello`` — and a ``pp_begin`` from a client that skipped hello —
is answered with a typed ``REDIRECT`` error whose ``error.shard`` field
names the assigned shard's address.  The client re-dials the shard
directly (:class:`~repro.serve.client.ServeClient` and
:class:`~repro.serve.resilient.ResilientServeClient` both follow), so the
front-end is never on the data path.  When the shard later dies, a
resilient client falls back to the front-end and is re-placed.

**Migration** rides on the same reply.  A shard lists in its ``query``
reply the clients whose only open period is a *parked* ``pp_begin`` and
whose hello carried ``"redirect": true``.  When such a begin has waited
``migrate_after_s`` and its shard is saturated while another shard has
headroom, the health sweep sends the source shard ``migrate``: the shard
cancels the parked period (it holds no capacity) and answers the begin
with ``REDIRECT`` to the target, where the client re-issues it with the
same idempotency token.

``query`` and ``stats`` are aggregated across every live shard, so one
probe sees cluster-wide utilization; ``drain`` fans out to all shards and
then drains the front-end itself.  The front-end's only loop is a health
sweep: it probes each shard into the placer's liveness/usage model, then
restarts dead shards and moves parked begins on what the probes saw.
Per-shard gauges, ``placements_total``, ``redirects_total``,
``migrations_total`` and the ``fragmentation`` gauge are exported
through the standard metrics registry.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import itertools
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple, Union

from . import protocol
from .client import ServeClient
from .config import ClusterConfig, ServeConfig
from .listener import Listener, Session
from .metrics import MetricsRegistry
from .placer import ClusterError, DemandAwarePlacer, ShardAddress, ShardState
from .protocol import ErrorCode
from .server import AdmissionServer

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


class ClusterFrontend(Listener):
    """The placer process: accepts clients, assigns shards, redirects."""

    def __init__(
        self, cfg: ClusterConfig, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if not cfg.shards:
            raise ClusterError("ClusterConfig needs at least one shard")
        super().__init__(cfg, MetricsRegistry())
        #: the one clock of every deadline, age and reservation
        self.clock = clock
        self.placer = DemandAwarePlacer(
            [ShardState(address=a) for a in cfg.shards], seed=cfg.seed
        )
        self.c_placements = self.metrics.counter(
            "placements_total", "clients assigned to a shard"
        )
        self.c_redirects = self.metrics.counter(
            "redirects_total", "hello/pp_begin replies answered with REDIRECT"
        )
        self.c_migrations = self.metrics.counter(
            "migrations_total", "parked clients moved to a shard with room"
        )
        self.c_migration_failures = self.metrics.counter(
            "migration_failures_total", "migrate calls the source shard failed"
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
        #: brownout state: set/cleared by the health sweep
        self._brownout = False
        self._brownout_streak = 0
        #: per-resource high-water mark of declared demand, the yardstick
        #: for "could any shard even fit a typical new client?"; folded
        #: from the shards' ``demand_peak_bytes``
        self._peak_demand: Dict[str, int] = {}
        #: shard name -> (client, demand, parked-since) of its movable
        #: parked begins, from the last probe
        self._parked: Dict[str, List[Tuple[str, Dict[str, int], float]]] = {}
        #: shard name -> lease TTL it reported; client -> the time its
        #: placement reservation is released
        self._lease_ttl_s: Dict[str, float] = {}
        self._release_at: Dict[str, float] = {}
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
        self._anon_ids = itertools.count(1)
        # hello and pp_begin are placed and redirected; query, stats and
        # drain are answered with cluster-wide aggregates; the rest are
        # shard verbs the front-end refuses
        self.verbs = {
            "hello": self._op_redirect,
            "pp_begin": self._op_redirect,
            "query": self._op_query,
            "stats": self._op_stats,
            "drain": self._op_drain,
            "pp_end": partial(
                self._refuse, ErrorCode.UNKNOWN_PERIOD, "end a period on its shard"
            ),
            "heartbeat": partial(
                self._refuse, ErrorCode.NOT_BOUND, "say hello before heartbeat"
            ),
            "migrate": partial(
                self._refuse, ErrorCode.BAD_REQUEST, "migrate is a shard verb"
            ),
        }

    # ------------------------------------------------------------------
    # listener hooks
    # ------------------------------------------------------------------
    async def _before_bind(self) -> None:
        """Probe the shards once, so the first client is placed on a
        known cluster."""
        await self._health_sweep()

    def _background_loops(self) -> List[Awaitable[None]]:
        return [self._health_loop()]

    async def _stopped(self) -> None:
        """Cancel the supervised restarts still in flight."""
        tasks = list(self._restart_tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # the health sweep
    # ------------------------------------------------------------------
    async def _shard_call(
        self,
        state: ShardState,
        op: str,
        timeout: Optional[float] = None,
        unreachable: Any = None,
        **fields: Any,
    ) -> Any:
        """Connect to shard ``state``, make one ``op`` call, close again.

        Returns the reply; None when the call fails, and ``unreachable``
        when the shard does not accept the connection.  (The shard is not
        a ``shard`` parameter: ``migrate`` sends a ``shard`` field.)
        """
        try:
            client = await ServeClient.connect(
                timeout=self.cfg.probe_timeout_s,
                **_connect_kwargs(state.address),
            )
        except (ConnectionError, OSError, asyncio.TimeoutError):
            return unreachable
        try:
            return await client.call(op, timeout=timeout, **fields)
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
        """Probe and fold every shard, then act on what the probes saw:
        restart the dead shards and move the parked begins that may move."""
        # Draining and mid-restart shards are skipped entirely: a planned
        # restart must not be mistaken for a death (that would skew
        # shards_alive and could flip brownout on), and only the
        # drain/restart cycle decides their liveness transitions.
        shards = [
            s for s in self.placer.shards.values()
            if not s.draining and s.name not in self._restarting
        ]
        replies = await self._each_shard(
            "query", shards, timeout=self.cfg.probe_timeout_s
        )
        for shard in shards:
            reply = replies[shard.name]
            if reply is None:
                self.placer.observe(shard.name, alive=False)
                continue
            self._fold_probe(shard, reply)
            # a shard that answers probes is serving: a stale quarantine
            # (operator intervention, external restart) lifts itself
            self._quarantined.discard(shard.name)
        self._release_expired()
        self._frag_peak = max(self._frag_peak, self.placer.fragmentation())
        self._update_brownout()
        # restarts first: starting one awaits nothing
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
        if self.cfg.migration:
            threshold = self.cfg.rebalance_fragmentation
            fragmented = (
                threshold is not None
                and self.placer.fragmentation() >= threshold
            )
            # fragmented capacity: don't wait for parked begins to age —
            # move them now, before the slivers deadlock each other
            min_age = 0.0 if fragmented else self.cfg.migrate_after_s
            await self._migrate_parked(min_age, rebalance=fragmented)

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
        peak = reply.get("demand_peak_bytes", 0)
        if peak > self._peak_demand.get("llc", 0):
            self._peak_demand["llc"] = peak
        self._lease_ttl_s[shard.name] = reply.get("lease_ttl_s", 0.0)
        self._note_parked(shard, reply)

    def _note_parked(self, shard: ShardState, reply: Dict[str, Any]) -> None:
        """Keep a probe's list of the shard's movable parked begins."""
        now = self.clock()
        self._parked[shard.name] = [
            (
                entry["client"],
                {entry["resource"]: entry["demand_bytes"]},
                now - entry["parked_s"],
            )
            for entry in reply.get("parked") or ()
        ]

    def _reserve(self, client_id: str, shard: ShardState) -> None:
        """Hold the client's placement reservation on ``shard`` for one of
        its lease TTLs: by then the shard's observed usage carries the
        client's charge, or its lease has lapsed."""
        self._release_at[client_id] = (
            self.clock() + self._lease_ttl_s.get(shard.name, 0.0)
        )

    def _release_expired(self) -> None:
        now = self.clock()
        for client_id, at in list(self._release_at.items()):
            if at <= now:
                del self._release_at[client_id]
                self.placer.release(client_id)

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

    async def _migrate_parked(
        self,
        min_age_s: float,
        only_shard: Optional[str] = None,
        rebalance: bool = False,
    ) -> int:
        """One migration sweep over the probed parked lists; returns moves.

        A parked begin at least ``min_age_s`` old whose shard is saturated
        while another has headroom is moved with ``migrate``: its shard
        answers the begin with REDIRECT to the target.  A source whose
        ``migrate`` call fails is asked nothing more in this sweep, so a
        hung shard costs one call, not one per listed begin.
        """
        moved = 0
        for name, parked in list(self._parked.items()):
            source = self.placer.shards[name]
            if not source.alive or only_shard not in (None, name):
                continue
            for entry in list(parked):
                if entry not in parked:
                    continue  # a drain's or the sweep's pass took it meanwhile
                client_id, demand, since = entry
                if self.clock() - since < min_age_s:
                    continue
                target = self.placer.migration_target(client_id, demand)
                if target is None or target is source:
                    continue
                # one attempt per probe: the next probe re-lists it if need be
                parked.remove(entry)
                reply = await self._shard_call(
                    source, "migrate", timeout=self.cfg.probe_timeout_s,
                    client=client_id, shard=target.address.to_fields(),
                )
                if reply is None:
                    self.c_migration_failures.inc()
                    break
                if not reply.get("moved"):
                    continue  # admitted (or gone) in the meantime
                self.placer.migrate(client_id, target)
                self._reserve(client_id, target)
                self.c_migrations.inc()
                if rebalance:
                    self.c_rebalances.inc()
                moved += 1
        return moved

    # ------------------------------------------------------------------
    # shard supervision
    # ------------------------------------------------------------------
    def register_restarter(self, name: str, restarter) -> None:
        """Arm the supervisor for shard ``name``.

        ``restarter`` is an async callable that brings the (dead or
        drained) shard process back up on its original address, where it
        recovers by replaying its own journal.  Once at least one
        restarter is registered the health sweep restarts dead shards
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

    def _restart_backoff(self, name: str) -> Optional[float]:
        """The crash-loop verdict on dead shard ``name``: the backoff before
        its restart, doubled (up to the cap) per re-death within
        ``crash_loop_window_s`` of its last restart, or None once
        ``quarantine_after`` such re-deaths in a row quarantine it."""
        last = self._last_restart.get(name)
        window = self.cfg.crash_loop_window_s
        streak = 0
        if last is not None and self.clock() - last < window:
            streak = self._restart_streak.get(name, 0) + 1
        self._restart_streak[name] = streak
        if streak >= self.cfg.quarantine_after:
            self._quarantined.add(name)
            return None
        return min(
            self.cfg.restart_backoff_s * (2 ** streak),
            self.cfg.restart_backoff_cap_s,
        )

    async def _supervised_restart(self, shard: ShardState) -> bool:
        """One supervised restart of a dead shard: the crash-loop verdict,
        its backoff, flap guard, restarter, probe-until-ready, revive."""
        name = shard.name
        try:
            backoff = self._restart_backoff(name)
            if backoff is None:
                return False
            await asyncio.sleep(backoff)
            # flap guard: a probe that answers means the "death" was a
            # transient (connection hiccup, mid-compaction stall) — the
            # process never left, so re-register it instead of restarting
            reply = await self._probe(shard)
            if reply is not None:
                self._fold_probe(shard, reply)
                self.placer.revive(name)
                return True
            self._last_restart[name] = self.clock()
            return await self._restart(shard)
        finally:
            self._restarting.discard(name)

    async def _restart(self, shard: ShardState) -> bool:
        """Run the shard's restarter, probe the shard until it answers
        (bounded) and re-register it with the placer.  False when a step
        fails, or when supervision was disarmed in the meantime."""
        restarter = self._restarters.get(shard.name)
        if restarter is None:
            return False
        try:
            await restarter()
        except Exception:
            return False
        deadline = self.clock() + self.cfg.restart_ready_timeout_s
        while self.clock() < deadline:
            reply = await self._probe(shard)
            if reply is not None:
                self._fold_probe(shard, reply)
                self.placer.revive(shard.name)
                self.c_shard_restarts.inc()
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
        re-place on their next hello), its movable parked begins migrate
        away by REDIRECT, running periods get a bounded grace window, and
        only then is the shard asked to drain.
        Returns True when the shard acknowledged the drain (or was
        already down).
        """
        shard = self.placer.shards.get(name)
        if shard is None:
            raise ClusterError(f"unknown shard {name!r}")
        grace = self.cfg.shard_drain_grace_s if grace_s is None else grace_s
        self.placer.mark_draining(name)
        self.c_shard_drains.inc()
        deadline = self.clock() + grace
        while self.clock() < deadline:
            reply = await self._probe(shard)
            if reply is None:
                break  # already down (crashed mid-drain)
            # the health sweep skips draining shards: refresh the parked
            # list from this probe
            self._note_parked(shard, reply)
            await self._migrate_parked(0.0, only_shard=name)
            if int(reply.get("open_periods") or 0) == 0:
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
        if name not in self._restarters:
            raise ClusterError(f"no restarter registered for shard {name!r}")
        if await self._restart(self.placer.shards[name]):
            return True
        self.placer.mark_draining(name, False)  # unplanned now
        return False

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
    # verbs
    # ------------------------------------------------------------------
    async def _refuse(
        self, code: str, message: str, session: Session,
        request: protocol.Request,
    ) -> Dict[str, Any]:
        """A shard verb: answered with its typed error, no placement."""
        return protocol.error_reply(request.id, code, message)

    async def _op_redirect(
        self, session: Session, request: protocol.Request
    ) -> Dict[str, Any]:
        """Place the client and answer with a REDIRECT to its shard.

        A ``pp_begin`` from a client that skipped hello is placed on its
        declared demand under a synthetic id, forgotten right away; a
        named client's reservation is held for one lease TTL.
        """
        if request.op == "hello":
            client_id = request.client
            demand: Dict[str, int] = {}
            hint = request.raw.get("demand_bytes")
            if type(hint) is int and hint > 0:
                demand["llc"] = hint
        else:
            client_id = f"anon-{next(self._anon_ids)}"
            demand = {request.resource.value: request.demand_bytes}
        shard = self._place(client_id, request.id, demand)
        if not isinstance(shard, ShardState):
            return shard  # shed
        self.c_redirects.inc()
        if request.op == "hello":
            self._reserve(client_id, shard)
        else:
            self.placer.forget(client_id)  # a synthetic identity never returns
        return protocol.error_reply(
            request.id, ErrorCode.REDIRECT,
            f"assigned to shard {shard.name}",
            shard=shard.address.to_fields(),
        )

    def _place(
        self,
        client_id: str,
        request_id: Optional[int],
        demand_hint: Optional[Dict[str, int]] = None,
    ) -> Union[ShardState, Dict[str, Any]]:
        """Place a client on a shard, or shed it: the ``OVERLOAD`` reply
        in a brownout, ``RETRY_AFTER`` with no live shard."""
        if self._shed_new_client(client_id):
            self.c_brownout_shed.inc()
            return protocol.error_reply(
                request_id, ErrorCode.OVERLOAD,
                "cluster is in brownout: shedding new clients",
                retry_after_s=self.cfg.brownout_retry_s,
            )
        try:
            shard = self.placer.place(client_id, demand_hint)
        except ClusterError:
            return protocol.error_reply(
                request_id, ErrorCode.RETRY_AFTER,
                "no live admission shard; retry",
                retry_after_s=self.cfg.retry_after_s,
            )
        self.c_placements.inc()
        return shard

    async def _each_shard(
        self,
        op: str,
        shards: Optional[List[ShardState]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Optional[Dict[str, Any]]]:
        """One ``op`` call to every shard (or to ``shards``) at once:
        shard name -> its reply, None when the call failed."""
        if shards is None:
            shards = list(self.placer.shards.values())
        replies = await asyncio.gather(
            *(self._shard_call(s, op, timeout=timeout) for s in shards),
            return_exceptions=True,
        )
        return {
            shard.name: reply if isinstance(reply, dict) else None
            for shard, reply in zip(shards, replies)
        }

    async def _op_query(
        self, session: Session, request: protocol.Request
    ) -> Dict[str, Any]:
        if request.pp_id is not None:
            return protocol.error_reply(
                request.id, ErrorCode.BAD_REQUEST,
                "per-period query must go through the period's shard",
            )
        replies = await self._each_shard(
            "query", timeout=self.cfg.probe_timeout_s
        )
        resources: Dict[str, Dict[str, Any]] = {}
        totals = {
            "open_periods": 0, "waiting": 0,
            "forced_admissions": 0, "clients": 0,
        }
        per_shard: Dict[str, Any] = {}
        for name, reply in replies.items():
            if reply is None:
                per_shard[name] = None
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
            per_shard[name] = {
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

    async def _op_stats(
        self, session: Session, request: protocol.Request
    ) -> Dict[str, Any]:
        per_shard = {
            name: None if reply is None else reply.get("stats")
            for name, reply in (await self._each_shard("stats")).items()
        }
        counters: Dict[str, int] = {}
        for reply in per_shard.values():
            for name, value in ((reply or {}).get("counters") or {}).items():
                counters[name] = counters.get(name, 0) + value
        return protocol.ok_reply(request.id, stats={
            **self.metrics.snapshot(),
            "shard_counters": counters,
            "shards": per_shard,
        })

    async def _op_drain(
        self, session: Session, request: protocol.Request
    ) -> Dict[str, Any]:
        """Drain admin verb, three modes.

        * ``{"op": "drain"}`` — fan out to every shard, then drain the
          front-end itself once the reply is written (whole-cluster
          shutdown, the original verb).
        * ``{"op": "drain", "shard": "shard1"}`` — rolling-restart *one*
          shard: planned drain, restart via its registered restarter,
          rejoin.  The cluster keeps serving throughout.
        * ``{"op": "drain", "rolling": true}`` — a full rolling restart
          over every shard, one at a time.

        ``shard`` must be a string, ``rolling`` a bool and ``grace_s`` a
        non-negative number; anything else is a ``BAD_REQUEST``.
        """
        raw = request.raw
        grace_s = raw.get("grace_s")
        target = raw.get("shard")
        if (
            (target is not None and not isinstance(target, str))
            or not isinstance(raw.get("rolling", False), bool)
            or (grace_s is not None and (
                isinstance(grace_s, bool)
                or not isinstance(grace_s, (int, float))
                or not grace_s >= 0  # NaN too
            ))
        ):
            return protocol.error_reply(
                request.id, ErrorCode.BAD_REQUEST,
                "drain takes a string 'shard', a boolean 'rolling' and a "
                "non-negative number 'grace_s'",
            )
        if target is not None:
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
        drained = {
            name: reply is not None
            for name, reply in (await self._each_shard("drain")).items()
        }
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
            metrics_interval_s=cfg.metrics_interval_s,
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
