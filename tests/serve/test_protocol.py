"""Wire-protocol framing and validation tests (NDJSON and binary)."""

import asyncio
import json
from dataclasses import replace

import pytest

from repro.config import default_machine_config
from repro.core.policy import StrictPolicy
from repro.core.progress_period import ResourceKind, ReuseLevel
from repro.errors import ProtocolError
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.protocol import ErrorCode
from repro.serve.server import AdmissionServer, ServeConfig


def frame(**fields):
    base = {"v": protocol.PROTOCOL_VERSION, "id": 1}
    base.update(fields)
    return base


class TestFraming:
    def test_encode_round_trips_through_decode(self):
        doc = frame(op="query", pp_id=3)
        assert protocol.decode_frame(protocol.encode_frame(doc)) == doc

    def test_encode_is_one_line(self):
        raw = protocol.encode_frame(frame(op="stats"))
        assert raw.endswith(b"\n")
        assert raw.count(b"\n") == 1

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError) as err:
            protocol.decode_frame(b"pp_begin llc 1024\n")
        assert err.value.code == ErrorCode.BAD_FRAME

    def test_decode_rejects_non_object_json(self):
        with pytest.raises(ProtocolError) as err:
            protocol.decode_frame(b"[1, 2, 3]\n")
        assert err.value.code == ErrorCode.BAD_FRAME

    def test_decode_rejects_oversized_frames(self):
        raw = protocol.encode_frame(frame(op="query", pad="x" * 100))
        with pytest.raises(ProtocolError) as err:
            protocol.decode_frame(raw, max_bytes=64)
        assert err.value.code == ErrorCode.FRAME_TOO_LARGE


class TestParseRequest:
    def test_pp_begin_parses_all_fields(self):
        request = protocol.parse_request(frame(
            op="pp_begin", resource="llc", demand_bytes=4096,
            reuse="high", label="dgemm", sharing_key="p0/k",
        ))
        assert request.op == "pp_begin"
        assert request.resource is ResourceKind.LLC
        assert request.demand_bytes == 4096
        assert request.reuse is ReuseLevel.HIGH
        assert request.label == "dgemm"
        assert request.sharing_key == "p0/k"

    def test_wrong_version_is_rejected(self):
        with pytest.raises(ProtocolError) as err:
            protocol.parse_request(
                {"v": protocol.PROTOCOL_VERSION + 1, "id": 1, "op": "query"}
            )
        assert err.value.code == ErrorCode.BAD_VERSION

    def test_missing_version_is_rejected(self):
        with pytest.raises(ProtocolError) as err:
            protocol.parse_request({"id": 1, "op": "query"})
        assert err.value.code == ErrorCode.BAD_VERSION

    def test_unknown_op_is_rejected(self):
        with pytest.raises(ProtocolError) as err:
            protocol.parse_request(frame(op="pp_suspend"))
        assert err.value.code == ErrorCode.UNKNOWN_OP

    @pytest.mark.parametrize("field,value", [
        ("demand_bytes", -1),
        ("demand_bytes", "4096"),
        ("demand_bytes", True),
        ("reuse", "extreme"),
        ("resource", "gpu"),
        ("sharing_key", 7),
    ])
    def test_pp_begin_field_validation(self, field, value):
        doc = frame(op="pp_begin", resource="llc", demand_bytes=4096, reuse="low")
        doc[field] = value
        with pytest.raises(ProtocolError) as err:
            protocol.parse_request(doc)
        assert err.value.code == ErrorCode.BAD_REQUEST

    def test_pp_end_requires_positive_pp_id(self):
        with pytest.raises(ProtocolError):
            protocol.parse_request(frame(op="pp_end"))
        with pytest.raises(ProtocolError):
            protocol.parse_request(frame(op="pp_end", pp_id=0))
        request = protocol.parse_request(frame(op="pp_end", pp_id=12))
        assert request.pp_id == 12

    def test_query_pp_id_is_optional(self):
        assert protocol.parse_request(frame(op="query")).pp_id is None
        assert protocol.parse_request(frame(op="query", pp_id=2)).pp_id == 2

    def test_request_id_may_be_absent(self):
        request = protocol.parse_request(
            {"v": protocol.PROTOCOL_VERSION, "op": "stats"}
        )
        assert request.id is None

    def test_migrate_parses_client_and_shard(self):
        for shard in (
            {"name": "shard1", "unix_path": "/tmp/rda.sock.shard1"},
            {"name": "shard1", "host": "10.0.0.2", "port": 7001},
        ):
            request = protocol.parse_request(
                frame(op="migrate", client="c1", shard=shard)
            )
            assert request.client == "c1"
            assert request.raw["shard"] == shard

    @pytest.mark.parametrize("fields", [
        {"shard": {"unix_path": "/tmp/s1.sock"}},
        {"client": "c" * (protocol.MAX_IDENT_CHARS + 1),
         "shard": {"unix_path": "/tmp/s1.sock"}},
        {"client": "c1"},
        {"client": "c1", "shard": {"name": "shard1"}},
        {"client": "c1", "shard": {"host": "10.0.0.2"}},
        {"client": "c1", "shard": {"host": "10.0.0.2", "port": True}},
        {"client": "c1", "shard": {"host": "10.0.0.2", "port": 0}},
        {"client": "c1", "shard": {"host": "10.0.0.2", "port": 65536}},
        {"client": "c1", "shard": "/tmp/s1.sock"},
    ], ids=[
        "no-client", "long-client", "no-shard", "no-address", "no-port",
        "bool-port", "port-zero", "port-too-big", "shard-not-object",
    ])
    def test_migrate_field_validation(self, fields):
        with pytest.raises(ProtocolError) as err:
            protocol.parse_request(frame(op="migrate", **fields))
        assert err.value.code == ErrorCode.BAD_REQUEST

    def test_redirect_address_reads_only_usable_redirects(self):
        def redirect(shard):
            return protocol.error_reply(
                1, ErrorCode.REDIRECT, "go elsewhere", shard=shard
            )

        assert protocol.redirect_address(
            redirect({"name": "s1", "unix_path": "/tmp/s1.sock"})
        ) == {"unix_path": "/tmp/s1.sock", "host": None, "port": None}
        assert protocol.redirect_address(
            redirect({"name": "s1", "host": "10.0.0.2", "port": 7001})
        ) == {"unix_path": None, "host": "10.0.0.2", "port": 7001}
        assert protocol.redirect_address(redirect({"name": "s1"})) is None
        assert protocol.redirect_address(
            protocol.error_reply(1, ErrorCode.RETRY_AFTER, "later")
        ) is None
        assert protocol.redirect_address(protocol.ok_reply(1)) is None


class TestReplies:
    def test_ok_reply_shape(self):
        reply = protocol.ok_reply(7, pp_id=3, admitted=True)
        assert reply == {
            "v": protocol.PROTOCOL_VERSION, "id": 7, "ok": True,
            "pp_id": 3, "admitted": True,
        }

    def test_error_reply_shape(self):
        reply = protocol.error_reply(
            9, ErrorCode.RETRY_AFTER, "queue full", retry_after_s=0.05
        )
        assert reply["ok"] is False
        assert reply["id"] == 9
        assert reply["error"]["code"] == ErrorCode.RETRY_AFTER
        assert reply["error"]["retry_after_s"] == 0.05

    def test_replies_are_json_encodable(self):
        for reply in (
            protocol.ok_reply(None, stats={}),
            protocol.error_reply(None, ErrorCode.INTERNAL, "boom"),
        ):
            json.dumps(reply)


# ----------------------------------------------------------------------
# binary (length-prefixed) framing — pure codec tests
# ----------------------------------------------------------------------

#: one representative frame per protocol verb
VERB_FRAMES = [
    frame(op="hello", client="c0"),
    frame(op="hello", client="c0", binary=True),
    frame(op="heartbeat"),
    frame(op="pp_begin", resource="llc", demand_bytes=4096, reuse="high",
          label="dgemm", sharing_key="p0/k", token="t-1"),
    frame(op="pp_end", pp_id=12),
    frame(op="query"),
    frame(op="query", pp_id=2),
    frame(op="stats"),
    frame(op="drain"),
]


class TestBinaryFraming:
    @pytest.mark.parametrize(
        "doc", VERB_FRAMES, ids=lambda d: f"{d['op']}-{len(d)}"
    )
    def test_every_verb_round_trips(self, doc):
        raw = protocol.encode_binary_frame(doc)
        assert protocol.decode_binary_frame(raw) == doc
        # the generic decoder dispatches on the magic byte
        assert protocol.decode_any_frame(raw) == doc

    def test_frame_layout(self):
        raw = protocol.encode_binary_frame(frame(op="stats"))
        assert raw[0] == protocol.BINARY_MAGIC
        length = int.from_bytes(raw[1:protocol.BINARY_HEADER_BYTES], "big")
        assert length == len(raw) - protocol.BINARY_HEADER_BYTES

    def test_magic_is_invalid_utf8_lead_byte(self):
        # a binary frame can never be mistaken for an NDJSON line (and
        # vice versa): 0xB5 is a UTF-8 continuation byte, never a lead
        assert protocol.BINARY_MAGIC >= 0x80
        ndjson = protocol.encode_frame(frame(op="stats"))
        assert ndjson[0] != protocol.BINARY_MAGIC
        assert protocol.decode_any_frame(ndjson) == frame(op="stats")

    def test_truncated_header_is_rejected(self):
        raw = protocol.encode_binary_frame(frame(op="stats"))
        with pytest.raises(ProtocolError) as err:
            protocol.parse_binary_header(raw[:3])
        assert err.value.code == ErrorCode.BAD_FRAME

    def test_bad_magic_is_rejected(self):
        raw = bytearray(protocol.encode_binary_frame(frame(op="stats")))
        raw[0] = 0x7B  # "{" — an NDJSON byte where the magic belongs
        with pytest.raises(ProtocolError) as err:
            protocol.parse_binary_header(bytes(raw[:5]))
        assert err.value.code == ErrorCode.BAD_FRAME

    def test_truncated_payload_is_rejected(self):
        raw = protocol.encode_binary_frame(frame(op="query", pp_id=3))
        with pytest.raises(ProtocolError) as err:
            protocol.decode_binary_frame(raw[:-2])
        assert err.value.code == ErrorCode.BAD_FRAME

    def test_trailing_garbage_is_rejected(self):
        raw = protocol.encode_binary_frame(frame(op="query"))
        with pytest.raises(ProtocolError) as err:
            protocol.decode_binary_frame(raw + b"xx")
        assert err.value.code == ErrorCode.BAD_FRAME

    def test_oversized_frame_is_rejected(self):
        raw = protocol.encode_binary_frame(frame(op="query", pad="x" * 100))
        with pytest.raises(ProtocolError) as err:
            protocol.parse_binary_header(raw[:5], max_bytes=64)
        assert err.value.code == ErrorCode.FRAME_TOO_LARGE
        with pytest.raises(ProtocolError) as err:
            protocol.decode_binary_frame(raw, max_bytes=64)
        assert err.value.code == ErrorCode.FRAME_TOO_LARGE

    def test_non_object_binary_payload_is_rejected(self):
        payload = b"[1, 2, 3]"
        raw = (bytes((protocol.BINARY_MAGIC,))
               + len(payload).to_bytes(4, "big") + payload)
        with pytest.raises(ProtocolError) as err:
            protocol.decode_binary_frame(raw)
        assert err.value.code == ErrorCode.BAD_FRAME


# ----------------------------------------------------------------------
# binary framing — live server round trips and NDJSON interop
# ----------------------------------------------------------------------
def _serve_machine(capacity_mb: float = 4.0):
    machine = default_machine_config()
    quantum = machine.llc.line_bytes * machine.llc.associativity
    capacity = max(quantum, int(capacity_mb * 1024 * 1024) // quantum * quantum)
    return replace(machine, llc=replace(machine.llc, capacity_bytes=capacity))


async def _start_server(tmp_path):
    cfg = ServeConfig(
        policy=StrictPolicy(), machine=_serve_machine(), sanitize=True,
        drain_grace_s=1.0,
    )
    server = AdmissionServer(cfg)
    sock = str(tmp_path / "serve.sock")
    await server.start(unix_path=sock)
    run_task = asyncio.ensure_future(server.run_until_drained())
    return server, sock, run_task


async def _finish(server, run_task):
    server.request_drain()
    await asyncio.wait_for(run_task, 5.0)
    sanitizer = server.service.sanitizer
    assert sanitizer is not None and sanitizer.ok, sanitizer.summary()


class TestBinaryEndToEnd:
    def test_every_verb_over_a_binary_connection(self, tmp_path):
        async def scenario():
            server, sock, run_task = await _start_server(tmp_path)
            client = await ServeClient.connect(unix_path=sock)
            try:
                reply = await client.hello("bin-client", binary=True)
                assert reply["binary"] is True
                assert client.binary is True
                assert (await client.heartbeat())["ok"]
                begin = await client.pp_begin(
                    demand_bytes=1 << 20, reuse="high", label="bin/period"
                )
                assert begin["admitted"] is True
                query = await client.query(begin["pp_id"])
                assert query["period"]["pp_id"] == begin["pp_id"]
                assert query["period"]["state"] in ("admitted", "running")
                assert "resources" in await client.query()
                stats = await client.stats()
                assert stats["counters"]["admitted_immediate_total"] >= 1
                assert (await client.pp_end(begin["pp_id"]))["ok"]
            finally:
                await client.close()
            await _finish(server, run_task)

        asyncio.run(scenario())

    def test_ndjson_and_binary_clients_interoperate(self, tmp_path):
        async def scenario():
            server, sock, run_task = await _start_server(tmp_path)
            plain = await ServeClient.connect(unix_path=sock)
            binary = await ServeClient.connect(unix_path=sock)
            try:
                await plain.hello("plain-client")
                await binary.hello("binary-client", binary=True)
                assert plain.binary is False and binary.binary is True
                # interleave periods from both encodings on one server
                b1 = await binary.pp_begin(demand_bytes=1 << 20, reuse="high")
                p1 = await plain.pp_begin(demand_bytes=1 << 20, reuse="low")
                assert b1["admitted"] and p1["admitted"]
                assert b1["pp_id"] != p1["pp_id"]
                await plain.pp_end(p1["pp_id"])
                await binary.pp_end(b1["pp_id"])
                stats = await plain.stats()
                assert stats["counters"]["admitted_immediate_total"] >= 2
            finally:
                await plain.close()
                await binary.close()
            await _finish(server, run_task)

        asyncio.run(scenario())

    def test_hello_without_binary_keeps_ndjson(self, tmp_path):
        async def scenario():
            server, sock, run_task = await _start_server(tmp_path)
            client = await ServeClient.connect(unix_path=sock)
            try:
                reply = await client.hello("plain")
                assert "binary" not in reply
                assert client.binary is False
                assert (await client.heartbeat())["ok"]
            finally:
                await client.close()
            await _finish(server, run_task)

        asyncio.run(scenario())

    def test_server_rejects_bad_magic_with_typed_error(self, tmp_path):
        async def scenario():
            server, sock, run_task = await _start_server(tmp_path)
            reader, writer = await asyncio.open_unix_connection(sock)
            try:
                writer.write(protocol.encode_frame(
                    frame(op="hello", client="x", binary=True)
                ))
                await writer.drain()
                reply = protocol.decode_frame(await reader.readline())
                assert reply["binary"] is True
                # now in binary mode: 5 header bytes with a wrong magic
                writer.write(b"\x00\x00\x00\x00\x02")
                await writer.drain()
                # the typed reject comes back binary-framed
                header = await reader.readexactly(protocol.BINARY_HEADER_BYTES)
                length = protocol.parse_binary_header(header)
                payload = await reader.readexactly(length)
                reply = protocol.decode_binary_frame(header + payload)
                assert reply["ok"] is False
                assert reply["error"]["code"] == ErrorCode.BAD_FRAME
                # ... and the server hangs up (desynchronized stream)
                assert await reader.read() == b""
            finally:
                writer.close()
            await _finish(server, run_task)

        asyncio.run(scenario())

    def test_server_rejects_oversized_binary_frame_with_typed_error(
        self, tmp_path
    ):
        async def scenario():
            server, sock, run_task = await _start_server(tmp_path)
            reader, writer = await asyncio.open_unix_connection(sock)
            try:
                writer.write(protocol.encode_frame(
                    frame(op="hello", client="x", binary=True)
                ))
                await writer.drain()
                protocol.decode_frame(await reader.readline())
                # header claiming a payload far beyond max_frame_bytes
                huge = server.cfg.max_frame_bytes + 1
                writer.write(
                    bytes((protocol.BINARY_MAGIC,)) + huge.to_bytes(4, "big")
                )
                await writer.drain()
                header = await reader.readexactly(protocol.BINARY_HEADER_BYTES)
                length = protocol.parse_binary_header(header)
                payload = await reader.readexactly(length)
                reply = protocol.decode_binary_frame(header + payload)
                assert reply["ok"] is False
                assert reply["error"]["code"] == ErrorCode.FRAME_TOO_LARGE
                assert await reader.read() == b""
            finally:
                writer.close()
            await _finish(server, run_task)

        asyncio.run(scenario())
