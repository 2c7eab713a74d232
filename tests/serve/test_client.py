"""ServeClient: replies matched to calls by request id, and the client
surface that ``Driver`` in ``perfbench/service.py`` relies on.

The servers here are fake ones on unix sockets, scripted per test, as in
``TestThinClientBounds`` (tests/serve/test_resilient.py): each reads raw
request lines and writes the reply frames it chooses, in the order it
chooses.
"""

import asyncio
import json

import pytest

from repro.errors import ProtocolError
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.protocol import ErrorCode


def reply_to(request, **fields):
    """An ok reply echoing the request's id and naming its op."""
    return protocol.encode_frame(
        protocol.ok_reply(request["id"], op=request["op"], **fields)
    )


async def read_request(reader):
    return json.loads(await reader.readline())


async def serving(tmp_path, handler, name="fake.sock"):
    """A fake server running ``handler`` per connection; each connection
    is closed when its handler returns."""
    async def closing(reader, writer):
        try:
            await handler(reader, writer)
        finally:
            writer.close()

    sock = str(tmp_path / name)
    server = await asyncio.start_unix_server(closing, path=sock)
    return server, sock


async def stop(server):
    server.close()
    await server.wait_closed()


class TestRepliesById:
    def test_overlapping_calls_get_their_own_replies_in_reverse_order(
        self, tmp_path
    ):
        async def scenario():
            async def reverse(reader, writer):
                first = await read_request(reader)
                second = await read_request(reader)
                writer.write(reply_to(second) + reply_to(first))
                await writer.drain()
                await reader.read()

            server, sock = await serving(tmp_path, reverse)
            client = await ServeClient.connect(unix_path=sock, timeout=1.0)
            query = asyncio.ensure_future(client.call_raw("query", timeout=5.0))
            stats = asyncio.ensure_future(client.call_raw("stats", timeout=5.0))
            assert (await query)["op"] == "query"
            assert (await stats)["op"] == "stats"
            await client.close()
            await stop(server)

        asyncio.run(scenario())

    def test_a_reply_after_its_call_timed_out_is_dropped(self, tmp_path):
        async def scenario():
            async def late(reader, writer):
                # answers the first request only once the second arrived,
                # long after the first call gave up
                first = await read_request(reader)
                second = await read_request(reader)
                writer.write(reply_to(first) + reply_to(second))
                await writer.drain()
                await reader.read()

            server, sock = await serving(tmp_path, late)
            client = await ServeClient.connect(unix_path=sock, timeout=1.0)
            with pytest.raises(asyncio.TimeoutError):
                await client.call_raw("query", timeout=0.1)
            reply = await client.call_raw("stats", timeout=5.0)
            assert reply["op"] == "stats" and reply["id"] == 2
            await client.close()
            await stop(server)

        asyncio.run(scenario())

    def test_a_hang_up_fails_every_waiting_call(self, tmp_path):
        async def scenario():
            async def hang_up(reader, writer):
                await read_request(reader)
                await read_request(reader)
                writer.close()

            server, sock = await serving(tmp_path, hang_up)
            client = await ServeClient.connect(unix_path=sock, timeout=1.0)
            calls = [
                asyncio.ensure_future(client.call_raw(op))
                for op in ("query", "stats")
            ]
            results = await asyncio.wait_for(
                asyncio.gather(*calls, return_exceptions=True), 5.0
            )
            assert [type(r) for r in results] == [ConnectionResetError] * 2
            # and a call on the ended connection fails at once
            with pytest.raises(ConnectionResetError):
                await client.call_raw("query", timeout=5.0)
            await client.close()
            await stop(server)

        asyncio.run(scenario())

    def test_a_reply_without_an_id_answers_the_oldest_waiting_call(
        self, tmp_path
    ):
        """A server answers a frame it cannot read an id from with
        ``"id": null``, and a connection's frames in order."""
        async def scenario():
            async def reject(reader, writer):
                while await reader.readline():
                    writer.write(protocol.encode_frame(protocol.error_reply(
                        None, ErrorCode.BAD_REQUEST, "unreadable",
                    )))
                    await writer.drain()

            server, sock = await serving(tmp_path, reject)
            client = await ServeClient.connect(unix_path=sock, timeout=1.0)
            reply = await client.call_raw("pp_end", pp_id="x", timeout=5.0)
            assert reply["error"]["code"] == ErrorCode.BAD_REQUEST
            await client.close()
            await stop(server)

        asyncio.run(scenario())


class TestPerfbenchSurface:
    """``connect(unix_path=, timeout=)``, ``hello``, ``call_raw``,
    ``close`` and ``closed``, as ``perfbench/service.py`` uses them."""

    def test_closed_tracks_close_not_the_connection(self, tmp_path):
        async def scenario():
            async def hang_up(reader, writer):
                writer.close()

            server, sock = await serving(tmp_path, hang_up)
            client = await ServeClient.connect(unix_path=sock, timeout=1.0)
            await asyncio.wait_for(client.framer.read(), 5.0)  # EOF
            # perfbench counts open connections by ``closed``
            assert client.closed is False
            await client.close()
            assert client.closed is True
            await client.close()  # idempotent
            assert client.closed is True
            await stop(server)

        asyncio.run(scenario())

    def test_call_raw_returns_error_replies_without_following(self, tmp_path):
        async def scenario():
            shard_dials = 0

            async def shard(reader, writer):
                nonlocal shard_dials
                shard_dials += 1
                writer.close()

            async def frontend(reader, writer):
                while line := await reader.readline():
                    request = json.loads(line)
                    if request["op"] == "hello":
                        reply = protocol.error_reply(
                            request["id"], ErrorCode.REDIRECT, "go",
                            shard={"name": "s0", "unix_path": shard_sock},
                        )
                    else:
                        reply = protocol.error_reply(
                            request["id"], ErrorCode.BAD_REQUEST, "no",
                        )
                    writer.write(protocol.encode_frame(reply))
                    await writer.drain()

            shard_server, shard_sock = await serving(tmp_path, shard, "s0.sock")
            server, sock = await serving(tmp_path, frontend)
            client = await ServeClient.connect(unix_path=sock, timeout=1.0)
            hello = await client.call_raw(
                "hello", client="bench", redirect=True, timeout=5.0
            )
            assert hello["ok"] is False
            assert hello["error"]["code"] == ErrorCode.REDIRECT
            assert hello["error"]["shard"]["unix_path"] == shard_sock
            refused = await client.call_raw(
                "pp_begin", demand_bytes=1, timeout=5.0
            )
            assert refused["error"]["code"] == ErrorCode.BAD_REQUEST
            assert client.redirects == 0 and shard_dials == 0
            await client.close()
            await stop(server)
            await stop(shard_server)

        asyncio.run(scenario())

    def test_mute_or_vanished_servers_raise_only_what_perfbench_catches(
        self, tmp_path
    ):
        caught = (asyncio.TimeoutError, ProtocolError, OSError)

        async def scenario():
            async def mute(reader, writer):
                await reader.read()

            async def vanish(reader, writer):
                await read_request(reader)
                writer.transport.abort()

            async def garble(reader, writer):
                await read_request(reader)
                writer.write(b"x" * (protocol.MAX_FRAME_BYTES + 1))
                await writer.drain()
                await reader.read()

            for handler in (mute, vanish, garble):
                server, sock = await serving(tmp_path, handler)
                client = await ServeClient.connect(unix_path=sock, timeout=1.0)
                with pytest.raises(caught):
                    await client.call_raw("query", timeout=0.5)
                with pytest.raises(caught):
                    await client.call_raw("query", timeout=0.5)
                await client.close()
                await stop(server)
            # a server gone before the connect
            with pytest.raises(OSError):
                await ServeClient.connect(unix_path=sock, timeout=1.0)

        asyncio.run(scenario())
