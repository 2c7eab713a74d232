"""The shared listener: one frame loop and one lifecycle under the
admission shard and the cluster front-end.

Same conventions as test_server.py: no pytest-asyncio (each test drives its
own loop with ``asyncio.run``), endpoints bind unix sockets under
``tmp_path``, and shards run with the online sanitizer attached.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.config import default_machine_config
from repro.core.policy import StrictPolicy
from repro.serve import framer, protocol
from repro.serve.client import ServeClient
from repro.serve.cluster import start_local_cluster
from repro.serve.protocol import VERBS, ErrorCode
from repro.serve.server import AdmissionServer, ServeConfig

QUERY = {"v": protocol.PROTOCOL_VERSION, "id": 1, "op": "query"}

#: name -> (raw bytes sent, expected error code, connection survives)
MALFORMED = {
    "bad_json": (b"this is not json\n", ErrorCode.BAD_FRAME, True),
    "not_an_object": (b"[1, 2, 3]\n", ErrorCode.BAD_FRAME, True),
    "bad_version": (
        protocol.encode_frame({**QUERY, "v": 99}), ErrorCode.BAD_VERSION, True,
    ),
    "unknown_op": (
        protocol.encode_frame({**QUERY, "op": "teleport"}),
        ErrorCode.UNKNOWN_OP, True,
    ),
    "bad_field": (
        protocol.encode_frame({**QUERY, "op": "pp_end", "pp_id": "x"}),
        ErrorCode.BAD_REQUEST, True,
    ),
    "unnegotiated_binary": (
        protocol.encode_binary_frame(QUERY) + b"\n", ErrorCode.BAD_FRAME, True,
    ),
    "unnegotiated_binary_first_frame": (
        protocol.encode_binary_frame(QUERY), ErrorCode.BAD_FRAME, True,
    ),
    "70_kb_line": (
        b'{"v": 1, "op": "query", "pad": "' + b"x" * 70_000 + b'"}\n',
        ErrorCode.FRAME_TOO_LARGE, False,
    ),
}


def tiny_machine(capacity_mb: float = 4.0):
    machine = default_machine_config()
    quantum = machine.llc.line_bytes * machine.llc.associativity
    capacity = max(quantum, int(capacity_mb * 1024 * 1024) // quantum * quantum)
    return replace(machine, llc=replace(machine.llc, capacity_bytes=capacity))


def shard_config(**overrides):
    return ServeConfig(
        policy=StrictPolicy(), machine=tiny_machine(), sanitize=True,
        **overrides,
    )


async def one_shard_cluster(tmp_path):
    """A front-end on ``placer.sock`` over one bare shard."""
    sock = str(tmp_path / "placer.sock")
    cluster = await start_local_cluster(
        shard_config(), 1, sock, supervise=False
    )
    return cluster, sock


async def send_malformed(path, frame):
    """Send one frame; return its error code and whether the connection
    still answers a valid query afterwards."""
    reader, writer = await asyncio.open_unix_connection(path)
    try:
        writer.write(frame)
        await writer.drain()
        reply = protocol.decode_frame(
            await asyncio.wait_for(reader.readline(), 5.0)
        )
        try:
            writer.write(protocol.encode_frame(QUERY))
            await writer.drain()
            after = await asyncio.wait_for(reader.readline(), 5.0)
        except ConnectionError:
            after = b""
        return reply["error"]["code"], bool(after)
    finally:
        writer.close()


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_shard_and_frontend_answer_a_malformed_frame_alike(tmp_path, name):
    frame, code, survives = MALFORMED[name]

    async def scenario():
        cluster, sock = await one_shard_cluster(tmp_path)
        [shard] = cluster.servers
        at_shard = await send_malformed(f"{sock}.shard0", frame)
        at_frontend = await send_malformed(sock, frame)
        assert at_shard == at_frontend == (code, survives)
        assert shard.c_protocol_errors.value == 1
        stats = cluster.frontend.metrics.snapshot()
        assert stats["counters"]["protocol_errors_total"] == 1
        cluster.request_drain()
        assert await asyncio.wait_for(cluster.run_until_drained(), 20.0) == 0

    asyncio.run(scenario())


def test_unnegotiated_binary_frames_are_each_rejected_until_ndjson(tmp_path):
    """Before a session's first NDJSON frame, every binary frame is read
    whole and refused, and the session then serves NDJSON."""
    async def scenario():
        cluster, sock = await one_shard_cluster(tmp_path)
        for path in (f"{sock}.shard0", sock):
            reader, writer = await asyncio.open_unix_connection(path)
            binary = protocol.encode_binary_frame(QUERY)
            writer.write(binary + binary + protocol.encode_frame(QUERY))
            await writer.drain()
            replies = [
                protocol.decode_frame(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                for _ in range(3)
            ]
            assert [r["ok"] for r in replies] == [False, False, True]
            assert {r["error"]["message"] for r in replies[:2]} == {
                "binary framing not negotiated"
            }
            writer.close()
        cluster.request_drain()
        assert await asyncio.wait_for(cluster.run_until_drained(), 20.0) == 0

    asyncio.run(scenario())


def test_idle_frontend_connection_is_closed_when_the_cluster_drains(tmp_path):
    async def scenario():
        cluster, sock = await one_shard_cluster(tmp_path)
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(protocol.encode_frame(QUERY))
        await writer.drain()
        assert protocol.decode_frame(await reader.readline())["ok"] is True
        cluster.request_drain()
        assert await asyncio.wait_for(cluster.run_until_drained(), 20.0) == 0
        # the drain closed the idle session instead of leaving it open
        assert await asyncio.wait_for(reader.read(), 2.0) == b""
        writer.close()

    asyncio.run(scenario())


def test_both_endpoints_dispatch_every_verb_through_one_table(tmp_path):
    async def scenario():
        cluster, _ = await one_shard_cluster(tmp_path)
        for endpoint in (cluster.frontend, *cluster.servers):
            assert sorted(endpoint.verbs) == sorted(VERBS)
        cluster.request_drain()
        assert await asyncio.wait_for(cluster.run_until_drained(), 20.0) == 0

    asyncio.run(scenario())


def test_raising_handler_is_answered_internal_and_the_session_survives(
    tmp_path,
):
    async def scenario():
        server = AdmissionServer(shard_config())
        sock = str(tmp_path / "serve.sock")
        await server.start(unix_path=sock)

        async def broken(session, request):
            raise RuntimeError("boom")

        server.verbs["stats"] = broken
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(protocol.encode_frame({**QUERY, "op": "stats"}))
        writer.write(protocol.encode_frame(QUERY))
        await writer.drain()
        error = protocol.decode_frame(await reader.readline())["error"]
        assert error["code"] == ErrorCode.INTERNAL
        assert error["message"] == "RuntimeError: boom"
        assert protocol.decode_frame(await reader.readline())["ok"] is True
        writer.close()
        server.request_drain()
        await asyncio.wait_for(server.run_until_drained(), 10.0)

    asyncio.run(scenario())


def test_idle_timeout_hangs_up_a_silent_connection(tmp_path):
    async def scenario():
        server = AdmissionServer(shard_config(idle_timeout_s=0.1))
        sock = str(tmp_path / "serve.sock")
        await server.start(unix_path=sock)
        reader, writer = await asyncio.open_unix_connection(sock)
        assert await asyncio.wait_for(reader.read(), 5.0) == b""
        assert len(server.sessions) == 0
        writer.close()
        server.request_drain()
        await asyncio.wait_for(server.run_until_drained(), 10.0)

    asyncio.run(scenario())


def test_unnegotiated_binary_frame_after_ndjson_is_rejected(tmp_path):
    """Every NDJSON frame's first byte is sniffed, not only the first
    frame's: a binary frame sent between two NDJSON queries is read whole
    and refused, and the session goes on serving NDJSON."""
    async def scenario():
        cluster, sock = await one_shard_cluster(tmp_path)
        for path in (f"{sock}.shard0", sock):
            reader, writer = await asyncio.open_unix_connection(path)
            replies = []
            for frame in (
                protocol.encode_frame(QUERY),
                protocol.encode_binary_frame({**QUERY, "id": 2}),
                protocol.encode_frame({**QUERY, "id": 3}),
            ):
                writer.write(frame)
                await writer.drain()
                replies.append(protocol.decode_frame(
                    await asyncio.wait_for(reader.readline(), 5.0)
                ))
            assert [r["ok"] for r in replies] == [True, False, True]
            assert replies[1]["error"] == {
                "code": ErrorCode.BAD_FRAME,
                "message": "binary framing not negotiated",
            }
            writer.close()
        cluster.request_drain()
        assert await asyncio.wait_for(cluster.run_until_drained(), 20.0) == 0

    asyncio.run(scenario())


async def read_reply(reader, binary):
    """One reply frame off a raw connection, in the given framing."""
    if not binary:
        return protocol.decode_frame(
            await asyncio.wait_for(reader.readline(), 5.0)
        )
    header = await asyncio.wait_for(
        reader.readexactly(protocol.BINARY_HEADER_BYTES), 5.0
    )
    length = protocol.parse_binary_header(header)
    payload = await asyncio.wait_for(reader.readexactly(length), 5.0)
    return protocol.decode_binary_frame(header + payload)


async def park_a_begin(server, sock, binary, hello=None):
    """A raw connection whose 3 MB begin is parked behind a holder's
    3 MB period (4 MB of LLC); returns the holder, its period and the
    connection."""
    holder = await ServeClient.connect(unix_path=sock)
    held = await holder.pp_begin(3 * 1024 * 1024)
    reader, writer = await asyncio.open_unix_connection(sock)
    if binary or hello:
        writer.write(protocol.encode_frame({
            **QUERY, "op": "hello", "client": hello or "split",
            "binary": binary,
        }))
        await writer.drain()
        ack = await read_reply(reader, False)
        assert ack["ok"] is True and ack.get("binary", False) is binary
    encode = protocol.encode_binary_frame if binary else protocol.encode_frame
    writer.write(encode({
        **QUERY, "op": "pp_begin", "resource": "llc",
        "demand_bytes": 3 * 1024 * 1024, "reuse": "low",
    }))
    await writer.drain()
    for _ in range(200):
        if len(server.service.waitlist):
            break
        await asyncio.sleep(0.01)
    assert len(server.service.waitlist) == 1, "the begin never parked"
    return holder, held, reader, writer


async def end_period(reader, writer, pp_id, binary):
    """End a period a raw connection holds (a named client's would
    outlive the connection and hold up the drain)."""
    encode = protocol.encode_binary_frame if binary else protocol.encode_frame
    writer.write(encode({**QUERY, "id": 9, "op": "pp_end", "pp_id": pp_id}))
    await writer.drain()
    assert (await read_reply(reader, binary))["ok"] is True


@pytest.mark.parametrize("framing", ["ndjson", "binary"])
def test_frame_split_across_the_end_of_a_park_is_read_whole(tmp_path, framing):
    """A frame whose first bytes arrived while a begin was parked is
    answered whole once the rest arrives after the park ended (in a binary
    session: cut 3 bytes into its payload)."""
    binary = framing == "binary"

    async def scenario():
        server = AdmissionServer(shard_config())
        sock = str(tmp_path / "serve.sock")
        await server.start(unix_path=sock)
        holder, held, reader, writer = await park_a_begin(server, sock, binary)
        if binary:
            query = protocol.encode_binary_frame({**QUERY, "id": 2})
            cut = protocol.BINARY_HEADER_BYTES + 3
        else:
            query, cut = protocol.encode_frame({**QUERY, "id": 2}), 5
        writer.write(query[:cut])
        await writer.drain()
        await asyncio.sleep(0.1)  # the first bytes arrive while parked
        await holder.pp_end(held["pp_id"])
        admitted = await read_reply(reader, binary)
        assert admitted["ok"] is True and admitted["admitted"] is True
        writer.write(query[cut:])
        await writer.drain()
        reply = await read_reply(reader, binary)
        assert reply["ok"] is True and reply["id"] == 2
        await end_period(reader, writer, admitted["pp_id"], binary)
        writer.close()
        await holder.close()
        server.request_drain()
        await asyncio.wait_for(server.run_until_drained(), 10.0)

    asyncio.run(scenario())


def test_frames_pipelined_behind_a_parked_begin_are_bounded(tmp_path):
    """A client pipelining ~3,000 queries behind its parked begin makes
    the session hold at most the framer's bound of frames; every frame
    read renews the lease, and once the deferred admission reply is sent
    every query is answered, in order."""
    queries = 3000

    async def scenario():
        server = AdmissionServer(shard_config(lease_ttl_s=30.0))
        sock = str(tmp_path / "serve.sock")
        await server.start(unix_path=sock)
        holder, held, reader, writer = await park_a_begin(
            server, sock, False, hello="piper"
        )
        [session] = [s for s in server.sessions if s.record.client_id == "piper"]
        leases = server.service.leases
        renewals = []
        renew = leases.renew

        def counting_renew(record):
            if record is session.record:
                renewals.append(len(session.framer.frames))
            renew(record)

        leases.renew = counting_renew
        writer.write(b"".join(
            protocol.encode_frame({**QUERY, "id": 2 + i})
            for i in range(queries)
        ))
        await writer.drain()
        held_frames = []
        for _ in range(50):
            held_frames.append(len(session.framer.frames))
            await asyncio.sleep(0.01)
        assert max(held_frames) == framer.MAX_BUFFERED_FRAMES
        assert not session.framer.transport.is_reading()
        # the frames taken in while parked renewed the lease
        assert renewals and renewals[-1] == framer.MAX_BUFFERED_FRAMES
        parked_renewals = len(renewals)
        await holder.pp_end(held["pp_id"])
        admitted = await read_reply(reader, False)
        assert admitted["ok"] is True and admitted["admitted"] is True
        ids = []
        for _ in range(queries):
            reply = await read_reply(reader, False)
            assert reply["ok"] is True
            ids.append(reply["id"])
        assert ids == list(range(2, 2 + queries))
        # ... and so did every frame served after the park
        assert len(renewals) == parked_renewals + queries
        assert max(renewals) <= framer.MAX_BUFFERED_FRAMES
        leases.renew = renew
        await end_period(reader, writer, admitted["pp_id"], False)
        writer.close()
        await holder.close()
        server.request_drain()
        await asyncio.wait_for(server.run_until_drained(), 10.0)

    asyncio.run(scenario())


def test_a_disconnect_behind_pipelined_frames_cancels_the_parked_begin(
    tmp_path,
):
    """A parked client that pipelines 1,000 queries (past the framer's
    bound of queued frames, but not of unframed bytes) and hangs up has its
    parked begin cancelled at once, not at the park timeout."""

    async def scenario():
        server = AdmissionServer(shard_config(park_timeout_s=30.0))
        sock = str(tmp_path / "serve.sock")
        await server.start(unix_path=sock)
        service = server.service
        holder, held, _, writer = await park_a_begin(server, sock, False)
        writer.write(b"".join(
            protocol.encode_frame({**QUERY, "id": 2 + i}) for i in range(1000)
        ))
        await writer.drain()
        writer.close()
        for _ in range(300):
            if service.c_disconnect_cancel.value:
                break
            await asyncio.sleep(0.01)
        assert service.c_disconnect_cancel.value == 1
        assert len(service.waitlist) == 0
        assert service.c_park_timeout.value == 0
        await holder.pp_end(held["pp_id"])
        await holder.close()
        server.request_drain()
        await asyncio.wait_for(server.run_until_drained(), 10.0)

    asyncio.run(scenario())


class _Transport:
    """The reading switch of a transport, for a framer fed by hand."""

    def __init__(self):
        self.reading = True

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def is_reading(self):
        return self.reading


def test_framer_reads_on_behind_a_full_queue_up_to_max_bytes():
    """Behind the bound of queued frames the framer keeps reading until
    ``max_bytes`` of unframed bytes wait, then pauses; each frame taken
    refills the queue from those bytes, and reading resumes once fewer
    than ``max_bytes`` wait."""
    max_bytes = 1000
    line = b'{"x": 1}\n'  # 9 bytes
    bound = framer.MAX_BUFFERED_FRAMES
    f = framer.Framer(max_bytes)
    f.transport = _Transport()
    f.data_received(line * bound)
    f.data_received(line * 100)
    assert len(f.frames) == bound and f.transport.is_reading()
    f.data_received(line * 20)
    assert len(f.frames) == bound and not f.transport.is_reading()
    assert len(f._buf) - f._pos == 120 * len(line)

    reads = []

    async def read_and_watch():
        for _ in range(bound + 120):
            reads.append((await f.read(), f.transport.is_reading()))

    asyncio.run(read_and_watch())
    assert [frame for frame, _ in reads] == [line] * (bound + 120)
    # each read frames one more 9-byte line out of the 1,080 unframed
    # bytes; the ninth leaves 999, under max_bytes, and reading resumes
    resumed = [i for i, (_, reading) in enumerate(reads) if reading]
    assert resumed == list(range(8, bound + 120))
    assert not f.frames and f._pos == len(f._buf)
