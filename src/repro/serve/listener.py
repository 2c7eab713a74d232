"""One listener under every endpoint of the admission service.

An admission shard (:class:`~repro.serve.server.AdmissionServer`) and the
cluster front-end (:class:`~repro.serve.cluster.ClusterFrontend`) speak
one wire protocol, so they share one transport layer.  :class:`Listener`
binds the unix and TCP listeners, owns the drain request, the signal
handlers, the metrics dump and shutdown, and runs one frame loop per
connection:

1. read one frame in the session's framing (an NDJSON line under the
   StreamReader limit, or a negotiated length-prefixed binary frame),
   under the optional idle timeout;
2. answer a malformed frame with its typed error (a binary frame before
   the negotiation is one) — and hang up when the byte stream cannot be
   re-synchronized (an oversized line, a torn binary frame);
3. dispatch the request through the endpoint's ``{op: handler}`` verb
   table; a handler that raises is answered with ``INTERNAL``;
4. write the reply under the optional write budget (a peer that stops
   reading is disconnected: the slow-consumer defense);
5. switch to binary framing after an acknowledged ``hello``, and start a
   drain once a ``drain`` acknowledgement is written.

An endpoint brings only its verb table, its session class and its
background loops, plus the hooks below: work before the first bind,
dispatch, the end of a session, and the two halves of shutdown.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
from typing import Any, Awaitable, Callable, Dict, List, Optional

from ..errors import ProtocolError, ServeError
from . import protocol
from .metrics import MetricsRegistry
from .protocol import ErrorCode

__all__ = ["Listener", "Session"]


class Session:
    """One connection: its transport, framing and deferred frames."""

    def __init__(
        self,
        listener: "Listener",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.listener = listener
        self.reader = reader
        self.writer = writer
        self.closed = False
        #: frames that arrived while a reply was deferred (a parked
        #: pp_begin); served in order once that reply has been sent
        self.pushback: List[bytes] = []
        #: length-prefixed binary framing, negotiated in "hello"; the
        #: switch takes effect after the hello reply (which is still sent
        #: in the encoding the request arrived in)
        self.binary = False
        self.binary_pending = False
        #: the first byte of a frame whose read was cancelled before the
        #: frame was whole (a park that ended); the next read resumes it
        self.head = b""

    async def read_frame(self) -> bytes:
        """One raw frame in the session's current framing; ``b""`` on a
        clean EOF.  A frame the stream cannot be re-synchronized after —
        an NDJSON line past the StreamReader limit, a torn or oversized
        binary frame — raises :class:`ProtocolError`."""
        max_bytes = self.listener.cfg.max_frame_bytes
        if not self.head:
            if self.binary:
                return await protocol.read_raw_frame(self.reader, True, max_bytes)
            # An NDJSON session reads each frame's first byte on its own: a
            # binary frame sent without negotiation has no newline for
            # ``readline`` to wait for, so it is read whole by its header.
            self.head = await self.reader.read(1)
        head = self.head
        try:
            if head and head[0] == protocol.BINARY_MAGIC:
                header = head + await self.reader.readexactly(
                    protocol.BINARY_HEADER_BYTES - 1
                )
                self.head = b""
                length = protocol.parse_binary_header(header, max_bytes)
                return header + await self.reader.readexactly(length)
            # b"" is EOF; a lone leading newline joins the next line, where
            # JSON reads it as whitespace
            frame = head and head + await self.reader.readline()
            self.head = b""
            return frame
        except ValueError:  # the StreamReader overran its limit
            raise ProtocolError(
                ErrorCode.FRAME_TOO_LARGE,
                f"request frame exceeds {max_bytes} bytes",
            ) from None

    async def send(self, frame: Dict[str, Any]) -> None:
        """Write one reply in the session's framing, under the write budget."""
        if self.closed:
            return
        encode = (
            protocol.encode_binary_frame if self.binary else protocol.encode_frame
        )
        try:
            self.writer.write(encode(frame))
            await asyncio.wait_for(
                self.writer.drain(), self.listener.write_timeout_s
            )
        except asyncio.TimeoutError:
            # Slow-consumer defense: a peer that stops reading (slowloris)
            # must not pin this session's write buffer forever.  Abort the
            # transport; the read side raises and the normal cleanup path
            # reclaims the session.
            self.listener.c_slow_disconnects.inc()
            self.close(abort=True)
        except (ConnectionError, RuntimeError):
            self.closed = True

    def close(self, abort: bool = False) -> None:
        """Close the connection; ``abort`` drops it without a flush."""
        self.closed = True
        with contextlib.suppress(Exception):
            if abort:
                self.writer.transport.abort()
            else:
                self.writer.close()


class Listener:
    """Transports, the frame loop and the lifecycle of one endpoint."""

    #: per-connection state; an endpoint may subclass :class:`Session`
    session_class = Session

    def __init__(
        self,
        cfg: Any,
        metrics: MetricsRegistry,
        *,
        idle_timeout_s: Optional[float] = None,
        write_timeout_s: Optional[float] = None,
    ) -> None:
        #: needs ``max_frame_bytes``, ``metrics_json``, ``metrics_interval_s``
        self.cfg = cfg
        self.metrics = metrics
        #: per-connection read idle timeout and reply write budget
        #: (None = wait forever)
        self.idle_timeout_s = idle_timeout_s
        self.write_timeout_s = write_timeout_s
        #: op -> async handler ``(session, request)`` returning the reply,
        #: or None when nobody is left to answer; one entry per protocol
        #: verb, set by the endpoint
        self.verbs: Dict[str, Callable[..., Awaitable[Any]]] = {}
        self.sessions: set = set()
        self.draining = False
        self._drain_requested = asyncio.Event()
        self._servers: List[asyncio.AbstractServer] = []
        self._unix_path: Optional[str] = None
        self._background: List[asyncio.Future] = []
        self.c_requests = metrics.counter("requests_total", "frames received")
        self.c_protocol_errors = metrics.counter(
            "protocol_errors_total", "malformed / invalid request frames"
        )
        self.c_slow_disconnects = metrics.counter(
            "slow_consumer_disconnects_total",
            "sessions disconnected because writer.drain() stalled past "
            "the write timeout",
        )
        metrics.gauge("connections", fn=lambda: len(self.sessions))

    # ------------------------------------------------------------------
    # endpoint hooks
    # ------------------------------------------------------------------
    async def _before_bind(self) -> None:
        """Start-up work that must finish before the first bind."""

    def _background_loops(self) -> List[Awaitable[None]]:
        """The endpoint's background loops, started after the bind."""
        return []

    async def _dispatch(
        self, session: Session, request: protocol.Request
    ) -> Optional[Dict[str, Any]]:
        """Run the request's verb handler; a raising handler is answered
        with ``INTERNAL`` (a reply beats a dead endpoint)."""
        try:
            return await self.verbs[request.op](session, request)
        except Exception as exc:  # noqa: BLE001
            return protocol.error_reply(
                request.id, ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"
            )

    def _end_session(self, session: Session) -> None:
        """The connection is gone: settle what dies with it."""

    async def _wind_down(self) -> None:
        """Drain, after the listeners close and before the sessions do."""

    async def _stopped(self) -> None:
        """Drain, after the sessions and the background loops stopped."""

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(
        self,
        unix_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
    ) -> None:
        """Bind the requested transports and start the background loops."""
        if unix_path is None and host is None:
            raise ServeError("need a unix socket path and/or a TCP host/port")
        if host is not None and port is None:
            raise ServeError("TCP transport needs a port")
        await self._before_bind()
        limit = self.cfg.max_frame_bytes
        if unix_path is not None:
            if os.path.exists(unix_path):
                os.unlink(unix_path)  # stale socket from a previous run
            self._servers.append(await asyncio.start_unix_server(
                self._serve_connection, path=unix_path, limit=limit
            ))
            self._unix_path = unix_path
        if host is not None:
            self._servers.append(await asyncio.start_server(
                self._serve_connection, host=host, port=port, limit=limit
            ))
        loops = self._background_loops()
        if self.cfg.metrics_json:
            loops.append(self._metrics_loop())
        self._background.extend(asyncio.ensure_future(loop) for loop in loops)

    @property
    def tcp_port(self) -> Optional[int]:
        """The bound TCP port (for ``--port 0`` ephemeral binds)."""
        for server in self._servers:
            for sock in server.sockets or ():
                if sock.family.name.startswith("AF_INET"):
                    return sock.getsockname()[1]
        return None

    def request_drain(self) -> None:
        """Begin graceful shutdown (idempotent; SIGTERM lands here)."""
        self._drain_requested.set()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-unix platforms

    async def run_until_drained(self) -> None:
        """Serve until a drain is requested, then shut down: stop
        accepting, wind the endpoint down, close every session, stop the
        background loops and dump the metrics a last time."""
        await self._drain_requested.wait()
        self.draining = True
        for server in self._servers:
            server.close()
        await self._wind_down()
        for session in list(self.sessions):
            session.close()
        for server in self._servers:
            await server.wait_closed()
        for task in self._background:
            task.cancel()
        await asyncio.gather(*self._background, return_exceptions=True)
        if self._unix_path and os.path.exists(self._unix_path):
            os.unlink(self._unix_path)
        await self._stopped()
        if self.cfg.metrics_json:
            self.metrics.dump_json(self.cfg.metrics_json)

    async def _metrics_loop(self) -> None:
        while True:
            await asyncio.sleep(self.cfg.metrics_interval_s)
            self.metrics.dump_json(self.cfg.metrics_json)

    # ------------------------------------------------------------------
    # the frame loop
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = self.session_class(self, reader, writer)
        self.sessions.add(session)
        try:
            await self._frame_loop(session)
        finally:
            self.sessions.discard(session)
            self._end_session(session)
            session.close()

    async def _reject(self, session: Session, exc: ProtocolError) -> None:
        """Answer a malformed frame with its typed error."""
        self.c_protocol_errors.inc()
        await session.send(protocol.error_reply(None, exc.code, exc.message))

    async def _frame_loop(self, session: Session) -> None:
        while not session.closed:
            if session.pushback:
                line = session.pushback.pop(0)
            else:
                try:
                    line = await asyncio.wait_for(
                        session.read_frame(), self.idle_timeout_s
                    )
                except (
                    asyncio.TimeoutError,  # idle client: hang up
                    ConnectionError,
                    asyncio.IncompleteReadError,
                ):
                    return
                except ProtocolError as exc:
                    # the stream cannot be re-synchronized: reply with the
                    # typed error, then hang up
                    await self._reject(session, exc)
                    return
                if not line:
                    return  # EOF
            self.c_requests.inc()
            try:
                if not session.binary and line[0] == protocol.BINARY_MAGIC:
                    raise ProtocolError(
                        ErrorCode.BAD_FRAME, "binary framing not negotiated"
                    )
                request = protocol.parse_request(
                    protocol.decode_any_frame(line, self.cfg.max_frame_bytes)
                )
            except ProtocolError as exc:
                await self._reject(session, exc)
                continue
            reply = await self._dispatch(session, request)
            if reply is None:
                continue  # nobody left to answer
            await session.send(reply)
            if session.binary_pending:
                # hello negotiated binary framing; it applies to every
                # frame after the (just-sent) hello reply
                session.binary_pending = False
                session.binary = True
            if request.op == "drain" and reply.get("draining"):
                self.request_drain()  # only now: the caller heard back
