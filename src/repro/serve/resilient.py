"""A fault-tolerant client for the admission-control service.

:class:`~repro.serve.client.ServeClient` is deliberately thin: one
connection, no recovery.  This module adds the client half of the
service's fault-tolerance contract as policy around it; every call, the
hello included, goes through a ``ServeClient``:

* **Reconnect + hello.**  Every (re)connection re-binds the same durable
  ``client_id`` with ``hello``, reattaching to periods that survived a
  disconnect or a server restart under the lease.  When the client was
  built with ``binary=True``, each re-``hello`` also renegotiates the
  length-prefixed binary framing, so the fast codec survives crashes and
  reconnects instead of silently degrading to NDJSON.
* **Redirect following.**  Every hello says ``"redirect": true``, and
  ``ServeClient.call`` follows a ``REDIRECT``: a cluster front-end's answer
  to the hello (``repro.serve.cluster``), or a shard's answer to a parked
  ``pp_begin`` it migrated, which is re-issued on the new shard with the
  same token.  The next connection dials the shard the last one reached;
  when that shard is unreachable the client falls back to the address it
  was given, so the placer can re-place it.
* **Idempotent pp_begin.**  Each admission carries a client-generated
  idempotency token.  A reply lost to a dropped connection or a server
  crash is re-issued with the *same* token; the server (and its journal)
  dedupe it, so the demand is charged at most once.
* **Exponential backoff with jitter.**  Transport failures and
  ``RETRY_AFTER`` pushback both back off exponentially (with jitter, so a
  thousand retrying clients do not stampede), floored at the server's
  ``retry_after_s`` hint when one is given.
* **Heartbeats as frames.**  The heartbeat loop writes one heartbeat
  frame per interval and waits for no reply, so the lease keeps renewing
  while a ``pp_begin`` is parked: the server renews it as the frame
  arrives, and the reply, deferred until the park ends, is dropped by its
  request id.  The parked client keeps its connection and its place.
  ``heartbeat()`` writes its frame the same way while a call waits on
  the connection.
* **Tolerant pp_end.**  A period the lease reaper already reclaimed (the
  client was silent past the TTL) yields a ``lost`` marker instead of an
  exception, and is counted in :attr:`lost_periods`.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ProtocolError, ServeError
from .client import ServeClient, ServeReplyError, ServeVerbs
from .protocol import ErrorCode

__all__ = ["ResilientServeClient", "backoff_sleep_s"]


def backoff_sleep_s(
    attempt: int,
    base_s: float,
    cap_s: float,
    rng: random.Random,
    floor_s: float = 0.0,
    max_exp: int = 10,
) -> float:
    """Exponential backoff with 25% jitter, floored at ``floor_s``.

    ``floor_s`` carries the server's ``retry_after_s`` hint and is applied
    *after* the ``cap_s`` clamp: the hint is the server's stated minimum
    and must hold as a hard floor even when it exceeds the client's own
    backoff cap (regression-tested in ``tests/serve/test_resilient.py``).
    """
    base = min(base_s * (2 ** min(attempt, max_exp)), cap_s)
    base = max(base, floor_s)
    return base * (1.0 + 0.25 * rng.random())


class ResilientServeClient(ServeVerbs):
    """Reconnecting, retrying, lease-renewing admission client."""

    def __init__(
        self,
        unix_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        *,
        client_id: Optional[str] = None,
        connect_timeout_s: float = 5.0,
        call_timeout_s: Optional[float] = None,
        begin_timeout_s: Optional[float] = None,
        heartbeat_interval_s: Optional[float] = None,
        max_attempts: int = 8,
        backoff_base_s: float = 0.02,
        backoff_cap_s: float = 1.0,
        retry_admission: bool = True,
        binary: bool = False,
        breaker_threshold: Optional[int] = None,
        breaker_reset_s: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if unix_path is None and (host is None or port is None):
            raise ServeError("need a unix socket path or a TCP host+port")
        self.unix_path = unix_path
        self.host = host
        self.port = port
        #: the address the caller gave us (a shard, or a cluster front-end)
        self._home: Dict[str, Any] = {
            "unix_path": unix_path, "host": host, "port": port,
        }
        #: where the next connection dials: where the last one reached
        self._target: Dict[str, Any] = self._home
        self.binary = binary
        self.client_id = client_id or f"client-{uuid.uuid4().hex[:12]}"
        self.connect_timeout_s = connect_timeout_s
        self.call_timeout_s = call_timeout_s
        self.begin_timeout_s = begin_timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.retry_admission = retry_admission
        self.lease_ttl_s: Optional[float] = None
        #: circuit breaker: after ``breaker_threshold`` consecutive
        #: connect/hello failures, further connection attempts fail fast
        #: for a jittered ``breaker_reset_s``; then one half-open probe
        #: either closes the breaker or re-opens it.  None = disabled.
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_s = breaker_reset_s
        self._breaker_failures = 0
        self._breaker_open_until: Optional[float] = None
        #: fault counters, exposed for reports and tests
        self.reconnects = 0
        self.retries = 0
        self.lost_periods = 0
        self.deduped = 0
        self.breaker_opens = 0
        self.breaker_fast_fails = 0
        #: REDIRECT replies followed on connections already dropped
        self._dropped_redirects = 0
        #: client-observed redirect latency: seconds from dialling for a
        #: hello that a REDIRECT moved to its acknowledgement on the shard
        #: the REDIRECT named — the placement-quality number the loadgen
        #: report summarizes
        self.redirect_latency_s: List[float] = []
        #: learned peak-demand estimate from the last hello reply; echoed
        #: back as the `hello demand_bytes` cluster placement hint
        self.predicted_demand_bytes: Optional[int] = None
        self._rng = rng if rng is not None else random.Random()
        self._conn: Optional[ServeClient] = None
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._conn_lock = asyncio.Lock()
        self._connected_once = False
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def connect(self) -> "ResilientServeClient":
        """Establish the first connection (and lease).  Optional — every
        call connects on demand — but useful to fail fast."""
        await self._ensure_connected()
        return self

    async def close(self) -> None:
        """Idempotent shutdown: stops the heartbeat, closes the transport."""
        self._closed = True
        task, self._heartbeat_task = self._heartbeat_task, None
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        if self._conn is not None:
            await self._drop(self._conn)

    @property
    def redirects(self) -> int:
        """REDIRECT replies followed, over every connection so far."""
        live = 0 if self._conn is None else self._conn.redirects
        return self._dropped_redirects + live

    @property
    def counters(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in (
            "reconnects", "retries", "lost_periods", "deduped", "redirects",
            "breaker_opens", "breaker_fast_fails",
        )}

    # ------------------------------------------------------------------
    # circuit breaker
    # ------------------------------------------------------------------
    def _breaker_check(self) -> None:
        """Fail fast while the breaker is open; past the reset deadline the
        caller proceeds as the single half-open probe (serialized by the
        connection lock, so exactly one probe is in flight)."""
        if self._breaker_open_until is None:
            return
        if time.monotonic() < self._breaker_open_until:
            self.breaker_fast_fails += 1
            raise ServeError(
                f"circuit breaker open after {self._breaker_failures} "
                f"consecutive connection failures; retry later"
            )
        # Half-open: allow this one attempt through.  Success closes the
        # breaker (_breaker_success); failure re-opens it immediately.
        self._breaker_open_until = None

    def _breaker_failure(self) -> None:
        if self.breaker_threshold is None:
            return
        self._breaker_failures += 1
        if self._breaker_failures >= self.breaker_threshold:
            self.breaker_opens += 1
            # Jittered so a fleet sharing a seed doesn't re-probe in sync.
            self._breaker_open_until = time.monotonic() + (
                self.breaker_reset_s * (1.0 + 0.25 * self._rng.random())
            )

    def _breaker_success(self) -> None:
        self._breaker_failures = 0
        self._breaker_open_until = None

    # ------------------------------------------------------------------
    # connection policy
    # ------------------------------------------------------------------
    async def _ensure_connected(self) -> ServeClient:
        """The live connection, or a new one bound by hello.

        A connect or hello that fails on the transport counts against
        ``max_attempts`` and the breaker, backs off, and falls back to the
        home address: the shard a REDIRECT named may be gone, and the
        placer re-places us.  A typed error reply to the hello (a
        brownout's ``OVERLOAD``) is raised as it is.
        """
        async with self._conn_lock:
            if self._closed:
                raise ServeError("client is closed")
            if self._conn is not None:
                if not self._conn.framer.ended:
                    return self._conn
                await self._drop(self._conn)
            attempt = 0
            while True:
                self._breaker_check()
                started = time.monotonic()
                try:
                    conn, hello = await self._dial()
                    break
                except (OSError, ProtocolError, asyncio.TimeoutError) as exc:
                    self._breaker_failure()
                    attempt += 1
                    if attempt >= self.max_attempts:
                        raise ServeError(
                            f"could not reach the admission server after "
                            f"{attempt} attempts: {exc}"
                        ) from exc
                    self._target = self._home
                    await asyncio.sleep(self._backoff(attempt))
            if self._connected_once:
                self.reconnects += 1
            self._connected_once = True
            self._breaker_success()
            self._conn = conn
            if conn.redirects:
                self.redirect_latency_s.append(time.monotonic() - started)
            self.lease_ttl_s = hello.get("lease_ttl_s")
            hint = hello.get("predicted_demand_bytes")
            if isinstance(hint, int) and hint > 0:
                self.predicted_demand_bytes = hint
            # Keep the lease warm by default: a third of the TTL unless the
            # caller picked a cadence.
            interval = self.heartbeat_interval_s
            if interval is None and self.lease_ttl_s:
                interval = self.lease_ttl_s / 3.0
            if interval and self._heartbeat_task is None:
                self._heartbeat_task = asyncio.ensure_future(
                    self._heartbeat_loop(interval)
                )
            return conn

    async def _dial(self) -> Tuple[ServeClient, Dict[str, Any]]:
        """Connect to the target and hello there, following REDIRECTs."""
        conn = await ServeClient.connect(
            timeout=self.connect_timeout_s, **self._target
        )
        # Re-bind the durable identity on every (re)connection, so the
        # lease transfers to this socket and replayed periods reattach.
        # Binary framing is renegotiated here too — the codec choice is
        # per-connection, so every re-hello must re-request it or a
        # reconnect would silently fall back to NDJSON.
        fields: Dict[str, Any] = {"client": self.client_id, "redirect": True}
        if self.binary:
            fields["binary"] = True
        if self.predicted_demand_bytes is not None:
            # placement hint: a demand-aware frontend scores shards
            # against the learned footprint, not the declared one
            fields["demand_bytes"] = self.predicted_demand_bytes
        try:
            hello = await conn.call(
                "hello", timeout=self.connect_timeout_s, **fields
            )
        except BaseException:
            await self._drop(conn)
            raise
        return conn, hello

    async def _drop(self, conn: ServeClient) -> None:
        """Hang up ``conn``: the calls waiting on it fail, and the next
        connection dials where it reached."""
        if self._conn is conn:
            self._conn = None
        self._dropped_redirects += conn.redirects
        conn.redirects = 0
        self._target = conn.address
        await conn.close()

    async def _heartbeat_loop(self, interval_s: float) -> None:
        """Keep the lease warm, across reconnects and parked begins.

        Each beat writes one heartbeat frame on the live connection,
        reconnecting first if it is gone, and waits for no reply.  A beat
        that cannot be written is superseded by the next.
        """
        while not self._closed:
            await asyncio.sleep(interval_s)
            with contextlib.suppress(Exception):
                conn = await self._ensure_connected()
                await conn.send("heartbeat")

    def _backoff(self, attempt: int, floor_s: float = 0.0) -> float:
        """Exponential backoff with 25% jitter, floored at ``floor_s``."""
        return backoff_sleep_s(
            attempt, self.backoff_base_s, self.backoff_cap_s, self._rng,
            floor_s=floor_s,
        )

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    async def call(
        self, op: str, timeout: Optional[float] = None, **fields: Any
    ) -> Dict[str, Any]:
        """One verb with transparent reconnect-and-retry on transport loss.

        A lost connection, an unreadable reply stream, an unreachable shard
        a REDIRECT named and silence past the per-attempt timeout (a lost
        frame, a half-open peer) each hang the connection up; the call
        backs off and re-sends the frame, token included, on a fresh one —
        safe for every verb this client issues.  Typed error replies raise
        :class:`~repro.serve.client.ServeReplyError` unchanged.
        """
        if timeout is None:
            # pp_begin legitimately parks for long stretches (the park
            # timeout is the server's to enforce), so it gets its own —
            # normally much larger — per-attempt bound.
            timeout = (
                self.begin_timeout_s if op == "pp_begin"
                else self.call_timeout_s
            )
        attempt = 0
        while True:
            conn = await self._ensure_connected()
            try:
                return await conn.call(op, timeout=timeout, **fields)
            except (OSError, ProtocolError, asyncio.TimeoutError) as exc:
                await self._drop(conn)
                attempt += 1
                self.retries += 1
                if attempt >= self.max_attempts:
                    raise ServeError(
                        f"{op} failed after {attempt} transport retries"
                    ) from exc
                await asyncio.sleep(self._backoff(attempt))

    async def heartbeat(self) -> Dict[str, Any]:
        """Renew the lease.

        While a call waits on the live connection (a parked ``pp_begin``),
        the server holds every reply on it back until the park ends, so
        the heartbeat is written as a frame, as the heartbeat loop writes
        it, and its reply is not awaited: the reply returned has
        ``"awaited": False`` and ``None`` for the lease and period counts
        the server's reply would carry.  Awaiting it would time out and
        hang up the parked begin's connection.  A frame that cannot be
        written (the connection is going) falls back to the awaited verb,
        which reconnects and retries.
        """
        conn = self._conn
        if conn is not None and conn.framer.calls:
            with contextlib.suppress(OSError, ProtocolError):
                await conn.send("heartbeat")
                return {
                    "ok": True, "client": self.client_id,
                    "lease_remaining_s": None, "open_periods": None,
                    "awaited": False,
                }
        return await super().heartbeat()

    async def pp_begin(
        self,
        demand_bytes: int,
        reuse: str = "low",
        resource: str = "llc",
        label: str = "",
        sharing_key: Optional[str] = None,
        token: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Idempotent admission: at most one charge per call, ever.

        The generated token makes crash-time re-issue safe; with
        ``retry_admission`` (the default) ``RETRY_AFTER`` pushback is also
        absorbed with exponential backoff floored at the server's hint.
        """
        token = token or uuid.uuid4().hex
        attempt = 0
        while True:
            try:
                reply = await super().pp_begin(
                    demand_bytes, reuse, resource, label, sharing_key, token,
                    timeout,
                )
            except ServeReplyError as exc:
                if exc.code != ErrorCode.RETRY_AFTER or not self.retry_admission:
                    raise
                attempt += 1
                self.retries += 1
                await asyncio.sleep(
                    self._backoff(attempt, floor_s=exc.retry_after_s or 0.0)
                )
                continue
            if reply.get("deduped"):
                self.deduped += 1
            return reply

    async def pp_end(
        self,
        pp_id: int,
        timeout: Optional[float] = None,
        observed_bytes: Optional[int] = None,
    ) -> Dict[str, Any]:
        """End a period; tolerate one the lease reaper already reclaimed."""
        try:
            return await super().pp_end(pp_id, timeout, observed_bytes)
        except ServeReplyError as exc:
            if exc.code != ErrorCode.UNKNOWN_PERIOD:
                raise
            # The reaper (or a crash) released it first.  The demand is not
            # charged any more, which is what pp_end is for — note it and
            # move on.
            self.lost_periods += 1
            return {
                "ok": False,
                "pp_id": pp_id,
                "lost": True,
                "error": exc.reply.get("error"),
            }
