"""The connection framer under every endpoint and client of the service.

One :class:`Framer` (an ``asyncio.Protocol``) per connection splits the
received bytes into frames as they arrive and writes frames in the
connection's framing.  Each whole frame goes through :meth:`Framer.deliver`:
a server session queues it for its frame loop, and a client's framer
(:class:`~repro.serve.client.ReplyFramer`) resolves the call it answers.
The codec itself is :mod:`repro.serve.protocol`, which loads no asyncio.
"""

from __future__ import annotations

import asyncio
import collections
from typing import Any, Awaitable, Callable, Deque, Dict, Optional

from ..errors import ProtocolError
from . import protocol
from .protocol import BINARY_HEADER_BYTES, BINARY_MAGIC, MAX_FRAME_BYTES
from .protocol import ErrorCode, parse_binary_header

__all__ = ["MAX_BUFFERED_FRAMES", "Framer"]

#: whole frames a connection holds unread (its byte bound: see Framer)
MAX_BUFFERED_FRAMES = 64


def _expire(waiter: "asyncio.Future[Any]") -> None:
    if not waiter.done():
        waiter.set_exception(asyncio.TimeoutError())


class Framer(asyncio.Protocol):
    """One connection's bytes, split into frames as they arrive.

    A frame whose first byte is :data:`~repro.serve.protocol.BINARY_MAGIC`
    is binary and read by its length header; any other frame is an NDJSON
    line, and a line of whitespace only is dropped.  Once :attr:`binary`
    is set, every frame must be binary and :meth:`send` encodes binary.
    At most :data:`MAX_BUFFERED_FRAMES` whole frames queue, and behind
    them the socket is read on until ``max_bytes`` wait unframed (so an EOF
    behind a shorter pipeline is seen), then not until :meth:`read` takes
    a frame: a connection holds at most that many frames, ``max_bytes``
    and one read.  A frame the stream cannot be re-synchronized after
    (over ``max_bytes``, or not binary in binary mode) ends the framing:
    :meth:`read` raises its :class:`ProtocolError` after the frames before
    it.  ``on_connect`` runs as the connection's task.
    """

    def __init__(
        self,
        max_bytes: int = MAX_FRAME_BYTES,
        on_connect: Optional[Callable[["Framer"], Awaitable[None]]] = None,
    ) -> None:
        self.max_bytes = max_bytes
        #: length-prefixed binary framing, negotiated in "hello": every
        #: frame sent and received is binary
        self.binary = False
        self.frames: Deque[bytes] = collections.deque()
        #: set on EOF, on connection loss and on a framing error
        self.ended = False
        self.error: Optional[ProtocolError] = None
        self.transport: Any = None
        self.task: Optional["asyncio.Task[None]"] = None
        self._on_connect = on_connect
        #: received bytes not yet framed start at ``_buf[_pos]``
        self._buf = b""
        self._pos = 0
        #: resolved by the next frame or the end of the connection
        self._waiter: Optional["asyncio.Future[None]"] = None
        #: resolved when a paused transport takes writes again
        self._drained: Optional["asyncio.Future[None]"] = None
        #: resolved once the connection is gone
        self.gone: Optional["asyncio.Future[None]"] = None

    # -- asyncio.Protocol ------------------------------------------------
    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        loop = asyncio.get_running_loop()
        self.gone = loop.create_future()
        if self._on_connect is not None:
            self.task = loop.create_task(self._on_connect(self))

    def data_received(self, data: bytes) -> None:
        if self.error is not None:
            return  # the stream is beyond re-synchronizing: drop it
        if self._pos < len(self._buf):
            data = self._buf[self._pos:] + data
        self._buf, self._pos = data, 0
        self._split()

    def eof_received(self) -> bool:
        """No frame follows: EOF, the connection's loss, or a framing
        error (:attr:`error`)."""
        self.ended = True
        self._wake()
        return True  # keep the write side open for the last replies

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.eof_received()
        self.resume_writing()
        if not self.gone.done():
            self.gone.set_result(None)

    def pause_writing(self) -> None:
        self._drained = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        drained, self._drained = self._drained, None
        if drained is not None and not drained.done():
            drained.set_result(None)

    # -- framing ---------------------------------------------------------
    def deliver(self, frame: bytes) -> None:
        """Take one whole frame: queue it for :meth:`read`."""
        self.frames.append(frame)

    def _split(self) -> None:
        """Deliver whole frames from the received bytes, up to the bound
        of queued ones, and pause or resume reading to hold the bounds."""
        buf, pos, frames = self._buf, self._pos, self.frames
        end = len(buf)
        max_bytes = self.max_bytes
        deliver = self.deliver
        try:
            while pos < end and len(frames) < MAX_BUFFERED_FRAMES:
                if buf[pos] == BINARY_MAGIC:
                    if end - pos < BINARY_HEADER_BYTES:
                        break
                    stop = pos + BINARY_HEADER_BYTES + parse_binary_header(
                        buf[pos:pos + BINARY_HEADER_BYTES], max_bytes
                    )
                    if stop > end:
                        break
                elif self.binary:
                    # raises: the first byte is not the magic
                    parse_binary_header(buf[pos:pos + BINARY_HEADER_BYTES])
                else:
                    stop = buf.find(b"\n", pos, pos + max_bytes) + 1
                    if not stop:
                        if end - pos < max_bytes:
                            break
                        raise ProtocolError(
                            ErrorCode.FRAME_TOO_LARGE,
                            f"frame exceeds the {max_bytes}-byte limit",
                        )
                frame = buf[pos:stop]
                pos = stop
                if not frame.isspace():
                    deliver(frame)
        except ProtocolError as exc:
            self.error = exc
            pos = end
            self.eof_received()
        if pos == end:
            self._buf, self._pos = b"", 0
        else:
            self._pos = pos
        if frames or self.ended:
            self._wake()
        if len(frames) >= MAX_BUFFERED_FRAMES and end - pos >= max_bytes:
            self.transport.pause_reading()
        elif not self.transport.is_reading():
            self.transport.resume_reading()

    def _wake(self) -> None:
        waiter, self._waiter = self._waiter, None
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def arrival(self) -> "asyncio.Future[None]":
        """A future resolved by the next frame or the end of the
        connection; it does not take the frame."""
        if self._waiter is None or self._waiter.done():
            self._waiter = asyncio.get_running_loop().create_future()
        return self._waiter

    async def read(self, timeout: Optional[float] = None) -> bytes:
        """The next whole frame; ``b""`` once the connection has ended.

        ``timeout`` bounds the wait with one timer and raises
        :class:`asyncio.TimeoutError` when it expires.
        """
        frames = self.frames
        while not frames:
            if self.error is not None:
                raise self.error
            if self.ended:
                return b""
            waiter = self.arrival()
            if timeout is None:
                await waiter
                continue
            timer = waiter.get_loop().call_later(timeout, _expire, waiter)
            try:
                await waiter
            finally:
                timer.cancel()
        full = len(frames) >= MAX_BUFFERED_FRAMES
        frame = frames.popleft()
        if full:  # the split stopped at the bound: frame what waits behind
            self._split()
        return frame

    # -- writing -----------------------------------------------------------
    async def send(
        self, obj: Dict[str, Any], timeout: Optional[float] = None
    ) -> None:
        """Encode one frame in the connection's framing and write it.  Waits
        only after ``pause_writing`` fired, raising
        :class:`asyncio.TimeoutError` after ``timeout`` seconds; a closed
        connection raises :class:`ConnectionResetError`."""
        if self.transport.is_closing():
            raise ConnectionResetError("connection lost")
        self.transport.write(
            protocol.encode_binary_frame(obj) if self.binary
            else protocol.encode_frame(obj)
        )
        if self._drained is not None:
            done, _ = await asyncio.wait({self._drained}, timeout=timeout)
            if not done:
                raise asyncio.TimeoutError()
