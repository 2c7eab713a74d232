"""Failure-path tests for the admission server.

No pytest-asyncio in the image: each test drives its own event loop with
``asyncio.run``.  Servers bind ephemeral unix sockets under ``tmp_path``;
every scenario runs with the online sanitizer attached, so any ledger leak
a failure path causes (demand not released on disconnect, double free on
cancel, ...) fails the test even if the protocol-level assertions pass.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.config import default_machine_config
from repro.core.api import MB
from repro.core.policy import StrictPolicy
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeReplyError
from repro.serve.protocol import ErrorCode
from repro.serve.server import MAX_PARKED_LISTED, AdmissionServer, ServeConfig


def tiny_machine(capacity_mb: float = 4.0):
    """The Table-1 machine with a small managed LLC (forces parking)."""
    machine = default_machine_config()
    quantum = machine.llc.line_bytes * machine.llc.associativity
    capacity = max(quantum, int(capacity_mb * 1024 * 1024) // quantum * quantum)
    return replace(machine, llc=replace(machine.llc, capacity_bytes=capacity))


async def start_server(tmp_path, **overrides):
    defaults = dict(
        policy=StrictPolicy(),
        machine=tiny_machine(4.0),
        sanitize=True,
        park_timeout_s=10.0,
        drain_grace_s=1.0,
    )
    defaults.update(overrides)
    cfg = ServeConfig(**defaults)
    server = AdmissionServer(cfg)
    sock = str(tmp_path / "serve.sock")
    await server.start(unix_path=sock)
    run_task = asyncio.ensure_future(server.run_until_drained())
    return server, sock, run_task


async def wait_until(predicate, timeout=2.0, interval=0.005):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


async def finish(server, run_task):
    """Drain the server and assert the sanitizer saw a clean run."""
    server.request_drain()
    await asyncio.wait_for(run_task, 5.0)
    sanitizer = server.service.sanitizer
    assert sanitizer is not None and sanitizer.ok, sanitizer.summary()


class TestDisconnectWhileParked:
    def test_parked_period_cancelled_and_demand_released(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            service = server.service
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            reply_a = await a.pp_begin(MB(3))
            assert reply_a["admitted"] is True
            # B cannot fit: its pp_begin parks (no reply yet)
            park_task = asyncio.ensure_future(b.pp_begin(MB(3)))
            await wait_until(lambda: len(service.waitlist) == 1)
            # B vanishes mid-park
            await b.close()
            park_task.cancel()
            await wait_until(lambda: len(service.waitlist) == 0)
            assert service.c_disconnect_cancel.value == 1
            # A is unaffected and the books balance after its pp_end
            await a.pp_end(reply_a["pp_id"])
            assert len(service.monitor.registry) == 0
            await a.close()
            await finish(server, run_task)

        asyncio.run(scenario())

    def test_disconnect_of_running_period_admits_waiter(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            await a.pp_begin(MB(3))
            park_task = asyncio.ensure_future(b.pp_begin(MB(3)))
            await wait_until(lambda: len(server.service.waitlist) == 1)
            # A dies holding an admitted period: its demand must be
            # released and B's parked pp_begin must complete
            await a.close()
            reply_b = await asyncio.wait_for(park_task, 5.0)
            assert reply_b["admitted"] is True
            assert reply_b["waited_s"] > 0.0
            await b.pp_end(reply_b["pp_id"])
            await b.close()
            await finish(server, run_task)

        asyncio.run(scenario())


class TestMalformedFrames:
    def test_bad_json_gets_typed_error_and_connection_survives(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(b"this is not json\n")
            await writer.drain()
            reply = protocol.decode_frame(await reader.readline())
            assert reply["ok"] is False
            assert reply["error"]["code"] == ErrorCode.BAD_FRAME
            # same connection still serves valid requests
            writer.write(protocol.encode_frame(
                {"v": protocol.PROTOCOL_VERSION, "id": 1, "op": "query"}
            ))
            await writer.drain()
            reply = protocol.decode_frame(await reader.readline())
            assert reply["ok"] is True
            writer.close()
            assert server.c_protocol_errors.value == 1
            await finish(server, run_task)

        asyncio.run(scenario())

    def test_wrong_version_rejected(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(protocol.encode_frame({"v": 99, "id": 1, "op": "query"}))
            await writer.drain()
            reply = protocol.decode_frame(await reader.readline())
            assert reply["error"]["code"] == ErrorCode.BAD_VERSION
            writer.close()
            await finish(server, run_task)

        asyncio.run(scenario())

    def test_oversized_frame_replies_then_disconnects(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(
                tmp_path, max_frame_bytes=1024
            )
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(b'{"v": 1, "op": "query", "pad": "' + b"x" * 4096 + b'"}\n')
            await writer.drain()
            reply = protocol.decode_frame(await reader.readline())
            assert reply["error"]["code"] == ErrorCode.FRAME_TOO_LARGE
            # the byte stream cannot be re-synchronized: server hangs up
            assert await reader.read() == b""
            writer.close()
            await finish(server, run_task)

        asyncio.run(scenario())


class TestPpEndMisuse:
    def test_double_pp_end_is_unknown_period(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            client = await ServeClient.connect(unix_path=sock)
            reply = await client.pp_begin(MB(1))
            await client.pp_end(reply["pp_id"])
            with pytest.raises(ServeReplyError) as err:
                await client.pp_end(reply["pp_id"])
            assert err.value.code == ErrorCode.UNKNOWN_PERIOD
            # the error is per-request: the connection still works
            assert (await client.query())["open_periods"] == 0
            await client.close()
            await finish(server, run_task)

        asyncio.run(scenario())

    def test_pp_end_of_another_connections_period_rejected(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            reply = await a.pp_begin(MB(1))
            with pytest.raises(ServeReplyError) as err:
                await b.pp_end(reply["pp_id"])
            assert err.value.code == ErrorCode.UNKNOWN_PERIOD
            await a.pp_end(reply["pp_id"])
            await a.close()
            await b.close()
            await finish(server, run_task)

        asyncio.run(scenario())


class TestOverloadAndTimeout:
    def test_pending_queue_bound_yields_retry_after(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path, max_pending=1)
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            c = await ServeClient.connect(unix_path=sock)
            reply_a = await a.pp_begin(MB(3))
            park_task = asyncio.ensure_future(b.pp_begin(MB(3)))
            await wait_until(lambda: len(server.service.waitlist) == 1)
            # the queue is full: C is bounced instead of queued
            with pytest.raises(ServeReplyError) as err:
                await c.pp_begin(MB(3))
            assert err.value.code == ErrorCode.RETRY_AFTER
            assert err.value.retry_after_s > 0
            assert server.service.c_retry_after.value == 1
            await a.pp_end(reply_a["pp_id"])
            reply_b = await asyncio.wait_for(park_task, 5.0)
            await b.pp_end(reply_b["pp_id"])
            for client in (a, b, c):
                await client.close()
            await finish(server, run_task)

        asyncio.run(scenario())

    def test_park_timeout_cancels_the_period(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(
                tmp_path, park_timeout_s=0.15
            )
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            reply_a = await a.pp_begin(MB(3))
            with pytest.raises(ServeReplyError) as err:
                await b.pp_begin(MB(3))
            assert err.value.code == ErrorCode.PARK_TIMEOUT
            assert len(server.service.waitlist) == 0
            assert server.service.c_park_timeout.value == 1
            await a.pp_end(reply_a["pp_id"])
            await a.close()
            await b.close()
            await finish(server, run_task)

        asyncio.run(scenario())


class TestDrain:
    def test_drain_wakes_parked_waiters_with_draining(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            c = await ServeClient.connect(unix_path=sock)
            reply_a = await a.pp_begin(MB(3))
            park_task = asyncio.ensure_future(b.pp_begin(MB(3)))
            await wait_until(lambda: len(server.service.waitlist) == 1)
            drain_reply = await c.drain()
            assert drain_reply["draining"] is True
            assert drain_reply["waiting"] == 1
            # the parked client hears DRAINING, not silence
            with pytest.raises(ServeReplyError) as err:
                await asyncio.wait_for(park_task, 5.0)
            assert err.value.code == ErrorCode.DRAINING
            # the running period may still finish inside the grace window
            await a.pp_end(reply_a["pp_id"])
            await asyncio.wait_for(run_task, 5.0)
            sanitizer = server.service.sanitizer
            assert sanitizer.ok, sanitizer.summary()
            for client in (a, b, c):
                await client.close()

        asyncio.run(scenario())

    def test_pp_begin_after_drain_rejected(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            client = await ServeClient.connect(unix_path=sock)
            server.request_drain()
            await wait_until(lambda: server.draining)
            with pytest.raises((ServeReplyError, ConnectionError, Exception)):
                await client.pp_begin(MB(1))
            await client.close()
            await asyncio.wait_for(run_task, 5.0)

        asyncio.run(scenario())


class TestSharingAndStarvation:
    def test_shared_working_set_charged_once(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            service = server.service
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            # two siblings declaring one 3 MB shared working set both fit
            # in 4 MB because the key is charged once (paper §3.2)
            ra = await a.pp_begin(MB(3), sharing_key="p0/grid")
            rb = await b.pp_begin(MB(3), sharing_key="p0/grid")
            assert ra["admitted"] and rb["admitted"]
            usage = service.resources.state(
                next(iter(service.managed_kinds))
            ).usage_bytes
            assert usage == MB(3)
            await a.pp_end(ra["pp_id"])
            await b.pp_end(rb["pp_id"])
            await a.close()
            await b.close()
            await finish(server, run_task)

        asyncio.run(scenario())

    def test_oversized_period_force_admitted_when_idle(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            client = await ServeClient.connect(unix_path=sock)
            # 8 MB demand on a 4 MB LLC: inadmissible by the predicate,
            # but the resource is idle so the starvation guard forces it
            reply = await client.pp_begin(MB(8))
            assert reply["admitted"] is True
            assert reply["forced"] is True
            await client.pp_end(reply["pp_id"])
            await client.close()
            await finish(server, run_task)

        asyncio.run(scenario())


class TestMigrateVerb:
    """The shard half of migration by REDIRECT: the ``parked`` list in
    ``query`` and the ``migrate`` verb a cluster front-end sends."""

    TARGET = {"name": "shard9", "unix_path": "/tmp/elsewhere.sock"}

    async def _park(self, server, sock, client_id, **hello_fields):
        """A 3 MB holder plus ``client_id`` parked behind it on 2 MB."""
        holder = await ServeClient.connect(unix_path=sock)
        held = await holder.pp_begin(MB(3))
        parker = await ServeClient.connect(unix_path=sock)
        hello = await parker.call_raw(
            "hello", client=client_id, **hello_fields
        )
        assert hello["ok"] is True
        # call_raw: the test reads the REDIRECT instead of following it
        begin = asyncio.ensure_future(parker.call_raw(
            "pp_begin", demand_bytes=MB(2), token="t-1"
        ))
        await wait_until(lambda: len(server.service.waitlist) == 1)
        return holder, held, parker, begin

    def test_movable_parked_begin_is_listed_and_redirected(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            holder, held, parker, begin = await self._park(
                server, sock, "mover", redirect=True
            )
            probe = await ServeClient.connect(unix_path=sock)
            q = await probe.query()
            assert q["demand_peak_bytes"] == MB(3)
            [entry] = q["parked"]
            assert entry["client"] == "mover"
            assert entry["resource"] == "llc"
            assert entry["demand_bytes"] == MB(2)
            assert entry["parked_s"] >= 0.0
            moved = await probe.call(
                "migrate", client="mover", shard=self.TARGET
            )
            assert moved["moved"] == 1
            # cancelled before the handler returned: nothing is parked
            assert len(server.service.waitlist) == 0
            reply = await asyncio.wait_for(begin, 5.0)
            assert reply["ok"] is False
            assert reply["error"]["code"] == ErrorCode.REDIRECT
            assert reply["error"]["shard"] == self.TARGET
            assert (await probe.query())["parked"] == []
            again = await probe.call(
                "migrate", client="mover", shard=self.TARGET
            )
            assert again["moved"] == 0
            await holder.pp_end(held["pp_id"])
            for client in (holder, parker, probe):
                await client.close()
            await finish(server, run_task)

        asyncio.run(scenario())

    def test_parked_list_is_longest_first_and_capped(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            holder = await ServeClient.connect(unix_path=sock)
            held = await holder.pp_begin(MB(4))
            parkers, begins = [], []
            for i in range(MAX_PARKED_LISTED + 2):
                parker = await ServeClient.connect(unix_path=sock)
                await parker.call_raw("hello", client=f"p{i}", redirect=True)
                begins.append(asyncio.ensure_future(
                    parker.call_raw("pp_begin", demand_bytes=MB(1))
                ))
                await wait_until(
                    lambda: len(server.service.waitlist) == i + 1
                )
                parkers.append(parker)
            probe = await ServeClient.connect(unix_path=sock)
            parked = (await probe.query())["parked"]
            assert [p["client"] for p in parked] == [
                f"p{i}" for i in range(MAX_PARKED_LISTED)
            ]
            ages = [p["parked_s"] for p in parked]
            assert ages == sorted(ages, reverse=True)
            for client in parkers:
                await client.close()
            for begin in begins:
                begin.cancel()
            await holder.pp_end(held["pp_id"])
            await holder.close()
            await probe.close()
            await finish(server, run_task)

        asyncio.run(scenario())

    def test_session_without_redirect_is_not_moved(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            holder, held, parker, begin = await self._park(
                server, sock, "stayer"
            )
            probe = await ServeClient.connect(unix_path=sock)
            assert (await probe.query())["parked"] == []
            moved = await probe.call(
                "migrate", client="stayer", shard=self.TARGET
            )
            assert moved["moved"] == 0
            await asyncio.sleep(0.1)
            assert not begin.done()
            assert len(server.service.waitlist) == 1
            # the begin is still parked, and admitted once room frees up
            await holder.pp_end(held["pp_id"])
            reply = await asyncio.wait_for(begin, 5.0)
            assert reply["admitted"] is True
            await parker.call("pp_end", pp_id=reply["pp_id"])
            for client in (holder, parker, probe):
                await client.close()
            await finish(server, run_task)

        asyncio.run(scenario())

    def test_thin_binary_client_follows_a_migration(self, tmp_path):
        """A movable thin client's parked begin re-dials the named shard,
        replays its hello (binary framing renegotiated) and is admitted
        there."""
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            target = AdmissionServer(replace(server.cfg, shard_name="b"))
            target_sock = str(tmp_path / "target.sock")
            await target.start(unix_path=target_sock)
            target_task = asyncio.ensure_future(target.run_until_drained())
            holder = await ServeClient.connect(unix_path=sock)
            held = await holder.pp_begin(MB(3))
            mover = await ServeClient.connect(unix_path=sock)
            await mover.call(
                "hello", client="mover", binary=True, redirect=True
            )
            assert mover.binary is True
            begin = asyncio.ensure_future(mover.pp_begin(MB(2), token="t-1"))
            await wait_until(lambda: len(server.service.waitlist) == 1)
            probe = await ServeClient.connect(unix_path=sock)
            moved = await probe.call(
                "migrate", client="mover",
                shard={"name": "b", "unix_path": target_sock},
            )
            assert moved["moved"] == 1
            reply = await asyncio.wait_for(begin, 5.0)
            assert reply["admitted"] is True
            assert mover.binary is True
            assert target.service.leases.get("mover") is not None
            await mover.pp_end(reply["pp_id"])
            await holder.pp_end(held["pp_id"])
            for client in (holder, mover, probe):
                await client.close()
            await finish(server, run_task)
            await finish(target, target_task)

        asyncio.run(scenario())

    def test_non_bool_redirect_is_rejected(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path)
            client = await ServeClient.connect(unix_path=sock)
            reply = await client.call_raw("hello", client="c", redirect="yes")
            assert reply["ok"] is False
            assert reply["error"]["code"] == ErrorCode.BAD_REQUEST
            await client.close()
            await finish(server, run_task)

        asyncio.run(scenario())
