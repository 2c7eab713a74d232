"""Load generator for the online admission-control service.

Replays workload-suite progress-period sequences (see
:mod:`repro.workloads.export`) against a running server in either of the
two canonical load models:

* **closed loop** — N concurrent clients, each running session after
  session over a persistent connection; offered load self-regulates to
  service capacity (the paper's co-run experiments, where a fixed set of
  processes compete).
* **open loop** — sessions arrive by a Poisson process at a configured
  rate, one connection per session; offered load is independent of service
  speed, so queueing (parking) grows when demand outstrips capacity.

Each client measures admission latency from its own side of the wire
(request sent → reply received), which includes park time; the server's
``waited_s`` field separates queueing delay from protocol overhead.  A
sampler connection polls ``query`` to time-series the aggregate-demand
utilization — the quantity figure 5/6 of the paper plot offline.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence

from ..core.api import MB
from ..errors import ProtocolError, ServeError
from ..latency import LatencySummary, summarize_samples
from ..workloads.export import PpCall, SessionScript
from . import protocol
from .client import ServeClient, ServeReplyError
from .protocol import ErrorCode
from .resilient import ResilientServeClient, backoff_sleep_s

__all__ = [
    "LoadgenConfig",
    "LoadgenReport",
    "fig4_scripts",
    "run_loadgen",
    "run_loadgen_sync",
]


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation run."""

    #: "closed" (N persistent clients) or "open" (Poisson arrivals)
    mode: str = "closed"
    #: closed loop: number of concurrent clients
    clients: int = 4
    #: open loop: mean session arrivals per second
    rate: float = 20.0
    #: total sessions to run (None = bounded by duration only)
    sessions: Optional[int] = None
    #: wall-clock budget; arrivals/new sessions stop after this (None = no cap)
    duration_s: Optional[float] = None
    #: multiply every scripted hold time (simulated phase durations are
    #: minutes long; 1e-4 turns them into sub-second holds)
    time_scale: float = 1e-4
    #: clamp one call's hold to this many seconds
    max_hold_s: float = 0.25
    #: give up a call after this many RETRY_AFTER rounds
    max_retries: int = 200
    #: first RETRY_AFTER backoff step (doubles per attempt, jittered)
    backoff_base_s: float = 0.02
    #: RETRY_AFTER backoff ceiling
    backoff_cap_s: float = 0.5
    #: use :class:`~repro.serve.resilient.ResilientServeClient` — clients
    #: survive server restarts and flaky transports (lease + token re-issue)
    resilient: bool = False
    #: resilient clients: per-attempt bound on non-begin calls (silence
    #: past it means a lost frame → reconnect and re-issue)
    call_timeout_s: Optional[float] = 5.0
    #: resilient clients: per-attempt bound on ``pp_begin``; None waits for
    #: the server's park timeout — set one under lossy transports, where
    #: silence can mean a dropped frame rather than a parked period
    begin_timeout_s: Optional[float] = None
    #: send ``drain`` once the run finishes (lets a CI server exit cleanly)
    drain: bool = False
    #: negotiate the length-prefixed binary framing in each client's hello
    #: (resilient clients re-negotiate it on every reconnect)
    binary: bool = False
    #: target is a cluster front-end: clients are resilient and follow
    #: REDIRECT replies to their assigned shard
    cluster: bool = False
    #: resilient clients: override the transport-retry backoff ceiling
    #: (None keeps the client's own default)
    client_backoff_cap_s: Optional[float] = None
    #: resilient clients: open the circuit breaker after this many
    #: consecutive connect/hello failures (None = breaker disabled)
    breaker_threshold: Optional[int] = None
    #: resilient clients: breaker reset window (half-open probe after)
    breaker_reset_s: float = 1.0
    #: declare each call's demand at this multiple of the scripted (true)
    #: working set — models annotation error; 1.0 = honest clients
    overdeclare: float = 1.0
    #: report the scripted demand as ``observed_bytes`` on every pp_end,
    #: feeding a ``serve --predict`` server's online estimator
    report_observed: bool = False
    #: RNG seed (arrival gaps, script order)
    seed: int = 0


@dataclass
class _Tally:
    """Mutable counters shared by all client tasks (single event loop)."""

    sessions_started: int = 0
    sessions_completed: int = 0
    sessions_failed: int = 0
    calls: int = 0
    admitted: int = 0
    parked: int = 0
    forced: int = 0
    retries: int = 0
    dropped_calls: int = 0
    park_timeouts: int = 0
    draining_rejects: int = 0
    protocol_errors: int = 0
    overload_sheds: int = 0
    shed_calls: int = 0
    sheds_without_hint: int = 0
    reconnects: int = 0
    lost_periods: int = 0
    deduped: int = 0
    redirects: int = 0
    redirect_latency_s: List[float] = field(default_factory=list)
    latency_s: List[float] = field(default_factory=list)
    waited_s: List[float] = field(default_factory=list)
    utilization_samples: List[float] = field(default_factory=list)


#: the run's counters, in report order: every int field of :class:`_Tally`
_COUNTERS = tuple(f.name for f in fields(_Tally) if f.type == "int")


@dataclass(frozen=True)
class LoadgenReport:
    """What one load-generation run observed."""

    mode: str
    wall_s: float
    sessions_started: int
    sessions_completed: int
    sessions_failed: int
    calls: int
    admitted: int
    parked: int
    forced: int
    retries: int
    dropped_calls: int
    park_timeouts: int
    draining_rejects: int
    protocol_errors: int
    #: terminal OVERLOAD sheds (cluster brownout), anywhere in a session
    overload_sheds: int
    #: calls that terminally ended shed — RETRY_AFTER exhausted/dropped,
    #: PARK_TIMEOUT, or OVERLOAD — as opposed to admitted/errored
    shed_calls: int
    #: shed replies missing the mandated retry hint (should stay 0)
    sheds_without_hint: int
    reconnects: int
    lost_periods: int
    deduped: int
    redirects: int
    throughput_pps: float
    admission_latency: LatencySummary
    park_time: LatencySummary
    utilization_mean: float
    utilization_peak: float
    #: client-observed REDIRECT → shard-hello completion time (cluster
    #: runs only; empty against a bare server)
    redirect_latency: LatencySummary = field(
        default_factory=lambda: summarize_samples([])
    )
    server_stats: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "mode": self.mode,
            "wall_s": self.wall_s,
            **{name: getattr(self, name) for name in _COUNTERS},
            "throughput_pps": self.throughput_pps,
            "admission_latency_s": self.admission_latency.to_dict(),
            "park_time_s": self.park_time.to_dict(),
            "redirect_latency_s": self.redirect_latency.to_dict(),
            "utilization_mean": self.utilization_mean,
            "utilization_peak": self.utilization_peak,
        }
        if self.server_stats is not None:
            payload["server_stats"] = self.server_stats
        return payload

    def describe(self) -> str:
        lines = [
            f"loadgen ({self.mode} loop): {self.wall_s:.2f} s wall, "
            f"{self.sessions_completed}/{self.sessions_started} sessions "
            f"({self.sessions_failed} failed)",
            f"  periods: {self.admitted}/{self.calls} admitted "
            f"({self.parked} parked, {self.forced} forced, "
            f"{self.dropped_calls} dropped), "
            f"{self.throughput_pps:.1f} periods/s",
            f"  backpressure: {self.retries} RETRY_AFTER, "
            f"{self.park_timeouts} park timeout(s), "
            f"{self.draining_rejects} draining reject(s), "
            f"{self.protocol_errors} protocol error(s)",
            f"  outcomes: {self.admitted} admitted, "
            f"{self.shed_calls} shed ({self.overload_sheds} OVERLOAD), "
            f"{self.protocol_errors} errored — shed rate "
            f"{self.shed_calls / self.calls if self.calls else 0.0:.1%}"
            + (
                f", {self.sheds_without_hint} shed reply(ies) MISSING a "
                "retry hint"
                if self.sheds_without_hint
                else ""
            ),
            f"  resilience: {self.reconnects} reconnect(s), "
            f"{self.deduped} deduped begin(s), "
            f"{self.redirects} redirect(s), "
            f"{self.lost_periods} period(s) lost to the lease reaper",
            "  admission latency "
            + self.admission_latency.describe(unit="ms", scale=1e3),
            "  park time         "
            + self.park_time.describe(unit="ms", scale=1e3),
            "  redirect latency  "
            + self.redirect_latency.describe(unit="ms", scale=1e3),
            f"  utilization: mean {self.utilization_mean:.1%}, "
            f"peak {self.utilization_peak:.1%}",
        ]
        return "\n".join(lines)


def fig4_scripts(
    n: int = 8, demand_mb: float = 6.3, hold_s: float = 0.02
) -> List[SessionScript]:
    """Synthetic figure-4 sessions: one DGEMM-style period per session."""
    call = PpCall(
        demand_bytes=MB(demand_mb), reuse="high", hold_s=hold_s, label="fig4/dgemm"
    )
    return [
        SessionScript(name=f"fig4#{i}", calls=(call,)) for i in range(n)
    ]


# ----------------------------------------------------------------------
class _Runner:
    def __init__(
        self,
        scripts: Sequence[SessionScript],
        cfg: LoadgenConfig,
        unix_path: Optional[str],
        host: Optional[str],
        port: Optional[int],
    ) -> None:
        if not scripts:
            raise ServeError("loadgen needs at least one session script")
        if cfg.mode not in ("closed", "open"):
            raise ServeError(f"unknown loadgen mode {cfg.mode!r}")
        if cfg.sessions is None and cfg.duration_s is None:
            raise ServeError("bound the run: set sessions and/or duration_s")
        self.scripts = list(scripts)
        self.cfg = cfg
        #: cluster mode needs clients that follow REDIRECT replies and
        #: fall back to the front-end when their shard dies — which is
        #: exactly what the resilient client does
        self.resilient = cfg.resilient or cfg.cluster
        self.connect_kwargs = {"unix_path": unix_path, "host": host, "port": port}
        self.tally = _Tally()
        self.rng = random.Random(cfg.seed)
        self._next_script = 0
        self._next_client = 0
        self._deadline: Optional[float] = None
        self._stop = False

    # ------------------------------------------------------------------
    def _take_script(self) -> SessionScript:
        script = self.scripts[self._next_script % len(self.scripts)]
        self._next_script += 1
        return script

    def _budget_left(self) -> bool:
        if self._stop:
            return False
        if (
            self.cfg.sessions is not None
            and self.tally.sessions_started >= self.cfg.sessions
        ):
            return False
        if self._deadline is not None and time.monotonic() >= self._deadline:
            return False
        return True

    def _hold_s(self, call: PpCall) -> float:
        return min(call.hold_s * self.cfg.time_scale, self.cfg.max_hold_s)

    def _retry_sleep_s(self, attempt: int, hint_s: Optional[float]) -> float:
        """Exponential backoff with jitter, floored at the server's hint.

        The server's ``retry_after_s`` is a minimum, not a schedule: a
        client that re-knocks at exactly that cadence forever keeps the
        pending queue saturated, so each rejection doubles the wait (up to
        the cap) and jitter decorrelates the herd.  The hint is a hard
        floor even past the cap — see :func:`backoff_sleep_s`.
        """
        return backoff_sleep_s(
            attempt,
            self.cfg.backoff_base_s,
            self.cfg.backoff_cap_s,
            self.rng,
            floor_s=hint_s or 0.0,
            max_exp=6,
        )

    async def _make_client(self):
        """One connection: thin by default, resilient when configured."""
        if not self.resilient:
            client = await ServeClient.connect(**self.connect_kwargs)
            if self.cfg.binary:
                # binary framing is negotiated in hello, so binary-mode
                # clients carry a (lease-bound) identity
                self._next_client += 1
                await client.hello(
                    f"loadgen-{self.cfg.seed}-{self._next_client}", binary=True
                )
            return client
        self._next_client += 1
        extra: Dict[str, Any] = {}
        if self.cfg.client_backoff_cap_s is not None:
            extra["backoff_cap_s"] = self.cfg.client_backoff_cap_s
        client = ResilientServeClient(
            **self.connect_kwargs,
            client_id=f"loadgen-{self.cfg.seed}-{self._next_client}",
            call_timeout_s=self.cfg.call_timeout_s,
            begin_timeout_s=self.cfg.begin_timeout_s,
            # loadgen counts RETRY_AFTER itself (its backoff loop is the
            # experiment); the resilient layer handles transport faults only
            retry_admission=False,
            binary=self.cfg.binary,
            breaker_threshold=self.cfg.breaker_threshold,
            breaker_reset_s=self.cfg.breaker_reset_s,
            rng=random.Random(self.rng.randrange(1 << 30)),
            **extra,
        )
        await client.connect()
        return client

    def _absorb_counters(self, client: Any) -> None:
        self.tally.redirects += client.redirects  # thin and resilient alike
        if isinstance(client, ResilientServeClient):
            self.tally.reconnects += client.reconnects
            self.tally.lost_periods += client.lost_periods
            self.tally.deduped += client.deduped
            self.tally.redirect_latency_s.extend(client.redirect_latency_s)
            client.redirect_latency_s = []

    # ------------------------------------------------------------------
    async def _run_call(self, client: Any, call: PpCall) -> bool:
        """One begin/hold/end round-trip.  Returns False to end the session."""
        tally = self.tally
        tally.calls += 1
        declared = call.demand_bytes
        if self.cfg.overdeclare != 1.0:
            declared = max(1, int(call.demand_bytes * self.cfg.overdeclare))
        for attempt in range(self.cfg.max_retries + 1):
            t0 = time.monotonic()
            try:
                reply = await client.pp_begin(
                    demand_bytes=declared,
                    reuse=call.reuse,
                    label=call.label,
                    sharing_key=call.sharing_key,
                )
            except ServeReplyError as exc:
                if exc.code in (
                    ErrorCode.RETRY_AFTER,
                    ErrorCode.PARK_TIMEOUT,
                    ErrorCode.OVERLOAD,
                ) and exc.retry_after_s is None:
                    # every shed reply must carry a retry hint
                    tally.sheds_without_hint += 1
                if exc.code == ErrorCode.RETRY_AFTER:
                    tally.retries += 1
                    if not self._budget_left():
                        # the run is over; don't keep knocking past the
                        # deadline just because the server is saturated
                        tally.dropped_calls += 1
                        tally.shed_calls += 1
                        return False
                    await asyncio.sleep(
                        self._retry_sleep_s(attempt, exc.retry_after_s)
                    )
                    continue
                if exc.code == ErrorCode.PARK_TIMEOUT:
                    tally.park_timeouts += 1
                    tally.shed_calls += 1
                    return True  # period cancelled server-side; move on
                if exc.code == ErrorCode.OVERLOAD:
                    # cluster brownout: this client was shed outright
                    tally.overload_sheds += 1
                    tally.shed_calls += 1
                    return False
                if exc.code == ErrorCode.DRAINING:
                    tally.draining_rejects += 1
                    # Against a bare server a drain means the run is over;
                    # in a cluster it is one shard's planned (rolling)
                    # restart — end this session, let the next one be
                    # re-placed on a live shard.
                    if not self.cfg.cluster:
                        self._stop = True
                    return False
                tally.protocol_errors += 1
                return False
            tally.latency_s.append(time.monotonic() - t0)
            tally.admitted += 1
            waited = float(reply.get("waited_s", 0.0))
            tally.waited_s.append(waited)
            if waited > 0.0:
                tally.parked += 1
            if reply.get("forced"):
                tally.forced += 1
            hold = self._hold_s(call)
            if hold > 0:
                await asyncio.sleep(hold)
            if self.cfg.report_observed:
                await client.pp_end(
                    reply["pp_id"], observed_bytes=call.demand_bytes
                )
            else:
                await client.pp_end(reply["pp_id"])
            return True
        # max_retries exhausted: the call ends shed, not errored
        tally.dropped_calls += 1
        tally.shed_calls += 1
        return True

    async def _run_session(self, client: Any, script: SessionScript) -> None:
        self.tally.sessions_started += 1
        try:
            for call in script.calls:
                if not await self._run_call(client, call):
                    self.tally.sessions_failed += 1
                    return
            self.tally.sessions_completed += 1
        except (ProtocolError, ServeError, ConnectionError):
            self.tally.sessions_failed += 1

    # ------------------------------------------------------------------
    async def _closed_worker(self) -> None:
        client = await self._make_client()
        try:
            while self._budget_left():
                await self._run_session(client, self._take_script())
        finally:
            self._absorb_counters(client)
            await client.close()

    async def _open_session(self, script: SessionScript) -> None:
        try:
            client = await self._make_client()
        except ServeReplyError as exc:
            # a cluster front-end in brownout sheds new clients at hello
            if exc.code == ErrorCode.OVERLOAD:
                self.tally.overload_sheds += 1
                self.tally.shed_calls += 1
                if exc.retry_after_s is None:
                    self.tally.sheds_without_hint += 1
            self.tally.sessions_started += 1
            self.tally.sessions_failed += 1
            return
        except (OSError, ServeError):
            self.tally.sessions_started += 1
            self.tally.sessions_failed += 1
            return
        try:
            await self._run_session(client, script)
        finally:
            self._absorb_counters(client)
            await client.close()

    async def _open_loop(self) -> None:
        spawned: List[asyncio.Task] = []
        while self._budget_left():
            spawned.append(
                asyncio.ensure_future(self._open_session(self._take_script()))
            )
            gap = self.rng.expovariate(self.cfg.rate) if self.cfg.rate > 0 else 0.0
            await asyncio.sleep(gap)
        if spawned:
            await asyncio.gather(*spawned, return_exceptions=True)

    async def _sampler(self) -> None:
        """Poll ``query`` to time-series the demand utilization."""
        try:
            client = await ServeClient.connect(**self.connect_kwargs)
        except OSError:
            return
        try:
            while True:
                await asyncio.sleep(0.02)
                reply = await client.call("query", timeout=5.0)
                for state in reply.get("resources", {}).values():
                    self.tally.utilization_samples.append(
                        float(state.get("utilization", 0.0))
                    )
        except (ProtocolError, ServeReplyError, ConnectionError, OSError,
                asyncio.TimeoutError):
            return
        finally:
            await client.close()

    # ------------------------------------------------------------------
    async def run(self) -> LoadgenReport:
        if self.cfg.duration_s is not None:
            self._deadline = time.monotonic() + self.cfg.duration_s
        sampler = asyncio.ensure_future(self._sampler())
        t_start = time.monotonic()
        if self.cfg.mode == "closed":
            workers = [
                asyncio.ensure_future(self._closed_worker())
                for _ in range(max(1, self.cfg.clients))
            ]
            await asyncio.gather(*workers)
        else:
            await self._open_loop()
        wall_s = time.monotonic() - t_start
        sampler.cancel()
        await asyncio.gather(sampler, return_exceptions=True)

        server_stats = await self._final_stats()
        tally = self.tally
        samples = tally.utilization_samples
        return LoadgenReport(
            mode=self.cfg.mode,
            wall_s=wall_s,
            **{name: getattr(tally, name) for name in _COUNTERS},
            throughput_pps=tally.admitted / wall_s if wall_s > 0 else 0.0,
            admission_latency=summarize_samples(tally.latency_s),
            park_time=summarize_samples(
                [w for w in tally.waited_s if w > 0.0]
            ),
            redirect_latency=summarize_samples(tally.redirect_latency_s),
            utilization_mean=(
                sum(samples) / len(samples) if samples else 0.0
            ),
            utilization_peak=max(samples, default=0.0),
            server_stats=server_stats,
        )

    async def _final_stats(self) -> Optional[Dict[str, Any]]:
        """Fetch the server's own metrics; optionally request drain."""
        try:
            client = await ServeClient.connect(**self.connect_kwargs)
        except OSError:
            return None
        try:
            # Bounded: over a faulty transport (the chaos proxy) a lost
            # reply must not hang the whole run for a statistics frame.
            stats = (await client.call("stats", timeout=5.0))["stats"]
            if self.cfg.drain:
                await client.call("drain", timeout=5.0)
            return stats
        except (ProtocolError, ServeReplyError, ConnectionError, OSError,
                asyncio.TimeoutError):
            return None
        finally:
            await client.close()


async def run_loadgen(
    scripts: Sequence[SessionScript],
    cfg: LoadgenConfig,
    unix_path: Optional[str] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
) -> LoadgenReport:
    """Drive a running admission server with the given session scripts."""
    runner = _Runner(scripts, cfg, unix_path, host, port)
    return await runner.run()


def run_loadgen_sync(
    scripts: Sequence[SessionScript],
    cfg: LoadgenConfig,
    unix_path: Optional[str] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
) -> LoadgenReport:
    """Blocking wrapper around :func:`run_loadgen` (CLI entry point)."""
    return asyncio.run(
        run_loadgen(scripts, cfg, unix_path=unix_path, host=host, port=port)
    )
