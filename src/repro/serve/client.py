"""Asyncio client for the admission-control service.

A thin, explicit wrapper over the wire protocol: one connection, one
request frame per call, each reply matched to its call by request id (a
``pp_begin`` call blocks while the server parks it — the figure-4
contract, where the kernel blocks the calling thread).  Calls may overlap
on one connection, a reply that arrives after its call timed out is
dropped, and the end of the connection fails exactly the calls waiting on
it.  :meth:`ServeClient.call` follows a ``REDIRECT`` — from a cluster
front-end, or from a shard that moved a parked begin — by re-dialling the
named shard; :meth:`ServeClient.call_raw` never does.  Used by the load
generator, the tests and ``examples/serve_quickstart.py``; application
code would embed the same dozen lines in any language.

:class:`~repro.serve.resilient.ResilientServeClient` sends its calls
through this class and adds reconnects, retries and idempotent re-issue —
prefer it for any client that must survive server restarts or flaky
transports.  Both share the verbs of :class:`ServeVerbs`.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
from typing import Any, Dict, Optional

from ..errors import ProtocolError, ServeError
from . import protocol
from .framer import Framer, _expire

__all__ = ["MAX_REDIRECT_HOPS", "ReplyFramer", "ServeClient",
           "ServeReplyError", "ServeVerbs"]

#: most REDIRECT replies one :meth:`ServeClient.call` follows
MAX_REDIRECT_HOPS = 8


class ServeReplyError(ServeError):
    """The server answered with a typed error reply."""

    def __init__(self, reply: Dict[str, Any]) -> None:
        error = reply.get("error") or {}
        self.code = error.get("code", protocol.ErrorCode.INTERNAL)
        self.detail = error.get("message", "")
        self.reply = reply
        super().__init__(f"{self.code}: {self.detail}")

    @property
    def retry_after_s(self) -> Optional[float]:
        return (self.reply.get("error") or {}).get("retry_after_s")


class ReplyFramer(Framer):
    """A client connection's framer: each reply resolves the call waiting
    on its request id, and the end of the connection fails every call
    still waiting."""

    def __init__(self) -> None:
        super().__init__()
        #: request id -> the future of the call waiting for its reply
        self.calls: Dict[int, "asyncio.Future[Dict[str, Any]]"] = {}

    def deliver(self, frame: bytes) -> None:
        try:
            reply = protocol.decode_any_frame(frame)
        except ProtocolError:
            return  # names no call
        calls = self.calls
        request_id = reply.get("id")
        if request_id is None and calls:
            # The server could not read the request's id (a malformed
            # frame).  It answers a connection's frames in order, so the
            # reply is the oldest waiting call's.
            request_id = next(iter(calls))
        call = calls.pop(request_id, None)
        if call is not None and not call.done():
            call.set_result(reply)

    def eof_received(self) -> bool:
        super().eof_received()
        calls, self.calls = self.calls, {}
        for call in calls.values():
            if not call.done():
                call.set_exception(self.lost())
        return True

    def lost(self) -> Exception:
        """What a call on the ended connection fails with."""
        return self.error or ConnectionResetError(
            "connection to the admission server lost"
        )


class ServeVerbs:
    """The protocol's verbs, written once over the ``call(op, timeout,
    **fields)`` each client defines."""

    async def hello(self, client: str, binary: bool = False) -> Dict[str, Any]:
        """Bind this connection to a durable, lease-holding identity.

        With ``binary=True`` the hello also negotiates the length-prefixed
        binary framing: the handshake itself runs in the current encoding,
        and every frame after the server's acknowledging reply switches.
        No other call may overlap the handshake.
        """
        if binary:
            return await self.call("hello", client=client, binary=True)
        return await self.call("hello", client=client)

    async def heartbeat(self) -> Dict[str, Any]:
        """Renew the client lease (requires a prior :meth:`hello`)."""
        return await self.call("heartbeat")

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
        """Figure 4's ``pp_begin`` over the wire; blocks while parked.

        ``token`` is an optional idempotency token: re-issuing the same
        begin after a lost reply returns the already-admitted period
        instead of charging twice (see ``docs/SERVE.md``).
        """
        fields: Dict[str, Any] = {
            "resource": resource,
            "demand_bytes": demand_bytes,
            "reuse": reuse,
            "label": label,
        }
        if sharing_key is not None:
            fields["sharing_key"] = sharing_key
        if token is not None:
            fields["token"] = token
        return await self.call("pp_begin", timeout=timeout, **fields)

    async def pp_end(
        self,
        pp_id: int,
        timeout: Optional[float] = None,
        observed_bytes: Optional[int] = None,
    ) -> Dict[str, Any]:
        """End a period.  ``observed_bytes`` optionally reports the working
        set actually touched, feeding the server's demand estimator when
        it runs with ``--predict``."""
        fields: Dict[str, Any] = {"pp_id": pp_id}
        if observed_bytes is not None:
            fields["observed_bytes"] = observed_bytes
        return await self.call("pp_end", timeout=timeout, **fields)

    async def query(
        self, pp_id: Optional[int] = None, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        if pp_id is None:
            return await self.call("query", timeout=timeout)
        return await self.call("query", timeout=timeout, pp_id=pp_id)

    async def stats(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        return (await self.call("stats", timeout=timeout))["stats"]

    async def drain(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        return await self.call("drain", timeout=timeout)


class ServeClient(ServeVerbs):
    """One connection to an admission server."""

    def __init__(self, framer: ReplyFramer) -> None:
        self.framer = framer
        self._ids = itertools.count(1)
        self._closed = False
        #: connect arguments of the endpoint the connection reaches: the
        #: dialled one, then the shard of each REDIRECT followed
        self.address: Dict[str, Any] = {}
        #: fields of the last successful hello, replayed on the shard a
        #: REDIRECT names
        self._hello: Optional[Dict[str, Any]] = None
        #: REDIRECT replies :meth:`call` has followed
        self.redirects = 0

    @classmethod
    async def connect(
        cls,
        unix_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> "ServeClient":
        """Open a connection; ``timeout`` bounds the connect itself."""
        loop = asyncio.get_running_loop()
        if unix_path is not None:
            opening = loop.create_unix_connection(ReplyFramer, unix_path)
            host = port = None
        elif host is not None and port is not None:
            opening = loop.create_connection(ReplyFramer, host, port)
        else:
            raise ServeError("need a unix socket path or a TCP host+port")
        _, framer = await asyncio.wait_for(opening, timeout)
        client = cls(framer)
        client.address = {"unix_path": unix_path, "host": host, "port": port}
        return client

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran (a lost connection is not closed)."""
        return self._closed

    @property
    def binary(self) -> bool:
        """Length-prefixed binary framing: on after a successful
        ``hello(binary=True)`` handshake (one-way per connection)."""
        return self.framer.binary

    async def close(self) -> None:
        """Close the connection.  Idempotent — safe to call twice, safe to
        call on a connection whose transport (or loop) is already gone."""
        self._closed = True
        # RuntimeError covers "Event loop is closed" during teardown.
        with contextlib.suppress(RuntimeError):
            self.framer.transport.close()
            await asyncio.shield(self.framer.gone)

    # ------------------------------------------------------------------
    async def call_raw(
        self, op: str, timeout: Optional[float] = None, **fields: Any
    ) -> Dict[str, Any]:
        """Send one request and return its reply frame (ok or error).

        ``timeout`` bounds the wait for the reply with one timer; on
        expiry the call raises :class:`asyncio.TimeoutError`, and a reply
        that arrives later is dropped.  A lost connection raises
        :class:`ConnectionResetError`, and a reply stream that cannot be
        re-synchronized its :class:`~repro.errors.ProtocolError`, in every
        call waiting on the connection.
        """
        framer = self.framer
        request_id = next(self._ids)
        reply = asyncio.get_running_loop().create_future()
        framer.calls[request_id] = reply
        timer = None
        try:
            await self._write(request_id, op, fields)
            if timeout is not None:
                timer = reply.get_loop().call_later(timeout, _expire, reply)
            return await reply
        finally:
            framer.calls.pop(request_id, None)
            if timer is not None:
                timer.cancel()

    async def send(self, op: str, **fields: Any) -> None:
        """Write one request and wait for no reply (it is dropped when it
        arrives): a heartbeat renews the lease even while a begin is
        parked on the connection."""
        await self._write(next(self._ids), op, fields)

    async def _write(
        self, request_id: int, op: str, fields: Dict[str, Any]
    ) -> None:
        if self._closed:
            raise ServeError("client is closed")
        if self.framer.ended:
            raise self.framer.lost()
        frame = {"v": protocol.PROTOCOL_VERSION, "id": request_id, "op": op}
        frame.update(fields)
        await self.framer.send(frame)

    async def call(
        self, op: str, timeout: Optional[float] = None, **fields: Any
    ) -> Dict[str, Any]:
        """Like :meth:`call_raw`, raising :class:`ServeReplyError` on errors.

        A ``REDIRECT`` naming an address is followed, at most
        :data:`MAX_REDIRECT_HOPS` times: the client dials that address,
        replays its last successful hello there with ``"redirect": true``
        (renegotiating binary framing) before any other call can use the
        new connection, then moves onto it and re-sends the request.
        """
        reply = await self.call_raw(op, timeout=timeout, **fields)
        for _ in range(MAX_REDIRECT_HOPS):
            address = protocol.redirect_address(reply)
            if address is None:
                break
            shard = await ServeClient.connect(timeout=timeout, **address)
            if op == "hello":
                fields = {**fields, "redirect": True}
            elif self._hello is not None:
                hello = {**self._hello, "redirect": True}
                try:
                    await shard.call("hello", timeout=timeout, **hello)
                except BaseException:
                    await shard.close()
                    raise
            self.redirects += 1
            self.framer.transport.close()
            self.framer, self.address = shard.framer, shard.address
            reply = await self.call_raw(op, timeout=timeout, **fields)
        if not reply.get("ok"):
            raise ServeReplyError(reply)
        if op == "hello":
            self._hello = fields
            if reply.get("binary"):
                self.framer.binary = True
        return reply
