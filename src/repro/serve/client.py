"""Asyncio client for the admission-control service.

A thin, explicit wrapper over the NDJSON protocol: one request per call,
one reply per call (a ``pp_begin`` call blocks while the server parks the
connection — the figure-4 contract, where the kernel blocks the calling
thread).  :meth:`ServeClient.call` follows a ``REDIRECT`` — from a
cluster front-end, or from a shard that moved a parked begin — by
re-dialling the named shard; :meth:`ServeClient.call_raw` never does.
Used by the load generator, the tests and ``examples/serve_quickstart.py``;
application code would embed the same dozen lines in any language.

:class:`~repro.serve.resilient.ResilientServeClient` layers reconnects,
retries and idempotent re-issue on top of this class — prefer it for any
client that must survive server restarts or flaky transports.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Dict, Optional

from ..errors import ProtocolError, ServeError
from . import protocol

__all__ = ["MAX_REDIRECT_HOPS", "ServeClient", "ServeReplyError"]

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


class ServeClient:
    """One connection to an admission server."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self._ids = itertools.count(1)
        self._closed = False
        #: length-prefixed binary framing; flips on after a successful
        #: ``hello(binary=True)`` handshake (one-way per connection)
        self.binary = False
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
        limit: int = protocol.MAX_FRAME_BYTES,
        timeout: Optional[float] = None,
    ) -> "ServeClient":
        """Open a connection; ``timeout`` bounds the connect itself."""
        if unix_path is not None:
            opening = asyncio.open_unix_connection(unix_path, limit=limit)
        elif host is not None and port is not None:
            opening = asyncio.open_connection(host, port, limit=limit)
        else:
            raise ServeError("need a unix socket path or a TCP host+port")
        if timeout is not None:
            reader, writer = await asyncio.wait_for(opening, timeout=timeout)
        else:
            reader, writer = await opening
        return cls(reader, writer)

    @property
    def closed(self) -> bool:
        return self._closed

    async def close(self) -> None:
        """Close the connection.  Idempotent — safe to call twice, safe to
        call on a connection whose transport (or loop) is already gone."""
        if self._closed:
            return
        self._closed = True
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (OSError, RuntimeError):
            # OSError covers ConnectionError plus the EINVAL a transport
            # aborted mid-close can surface from wait_closed();
            # RuntimeError covers "Event loop is closed" during teardown.
            pass
        # Unblock any pending readline cleanly: feeding EOF makes a racing
        # reader see b"" instead of hanging on a dead transport.
        try:
            self.reader.feed_eof()
        except (AssertionError, RuntimeError):
            pass

    # ------------------------------------------------------------------
    async def call_raw(
        self, op: str, timeout: Optional[float] = None, **fields: Any
    ) -> Dict[str, Any]:
        """Send one request and return the raw reply frame (ok or error).

        ``timeout`` bounds the whole round trip; on expiry the call raises
        :class:`asyncio.TimeoutError` and the connection must be considered
        desynchronized (the reply may still arrive later) — close it.
        """
        if self._closed:
            raise ServeError("client is closed")

        async def round_trip() -> Dict[str, Any]:
            await self.send_request(next(self._ids), op, fields)
            return await self._read_reply()

        return await asyncio.wait_for(round_trip(), timeout=timeout)

    async def send_request(
        self, request_id: int, op: str, fields: Dict[str, Any]
    ) -> None:
        """Build one request frame and write it in the connection's
        current framing."""
        frame = {"v": protocol.PROTOCOL_VERSION, "id": request_id, "op": op}
        frame.update(fields)
        encode = (
            protocol.encode_binary_frame if self.binary else protocol.encode_frame
        )
        self.writer.write(encode(frame))
        await self.writer.drain()

    async def _read_reply(self) -> Dict[str, Any]:
        """Read one reply frame in the connection's current framing."""
        buf = await protocol.read_raw_frame(self.reader, self.binary)
        if not buf:
            raise ProtocolError(
                protocol.ErrorCode.INTERNAL, "server closed the connection"
            )
        return protocol.decode_any_frame(buf)

    async def call(
        self, op: str, timeout: Optional[float] = None, **fields: Any
    ) -> Dict[str, Any]:
        """Like :meth:`call_raw`, raising :class:`ServeReplyError` on errors.

        A ``REDIRECT`` naming an address is followed, at most
        :data:`MAX_REDIRECT_HOPS` times: the client re-dials that address,
        replays its last successful hello with ``"redirect": true``
        (renegotiating binary framing), then re-sends the request.
        """
        reply = await self.call_raw(op, timeout=timeout, **fields)
        for _ in range(MAX_REDIRECT_HOPS):
            address = protocol.redirect_address(reply)
            if address is None:
                break
            self.redirects += 1
            shard = await ServeClient.connect(timeout=timeout, **address)
            self.writer.close()
            self.reader, self.writer = shard.reader, shard.writer
            self.binary = False
            if op == "hello":
                fields = {**fields, "redirect": True}
            elif self._hello is not None:
                hello = {**self._hello, "redirect": True}
                await self.call("hello", timeout=timeout, **hello)
            reply = await self.call_raw(op, timeout=timeout, **fields)
        if not reply.get("ok"):
            raise ServeReplyError(reply)
        if op == "hello":
            self._hello = fields
            if reply.get("binary"):
                self.binary = True
        return reply

    # ------------------------------------------------------------------
    async def hello(self, client: str, binary: bool = False) -> Dict[str, Any]:
        """Bind this connection to a durable, lease-holding identity.

        With ``binary=True`` the hello also negotiates the length-prefixed
        binary framing: the handshake itself runs in the current encoding,
        and every frame after the server's acknowledging reply switches.
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
