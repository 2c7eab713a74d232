"""Client leases: hello/heartbeat semantics and the server-side reaper."""

import asyncio
from dataclasses import replace

import pytest

from repro.config import default_machine_config
from repro.core.api import MB
from repro.core.policy import StrictPolicy
from repro.serve.client import ServeClient, ServeReplyError
from repro.serve.protocol import ErrorCode
from repro.serve.server import AdmissionServer, ServeConfig

CAPACITY_MB = 4.0


def tiny_machine(capacity_mb: float = CAPACITY_MB):
    machine = default_machine_config()
    quantum = machine.llc.line_bytes * machine.llc.associativity
    capacity = max(quantum, int(capacity_mb * 1024 * 1024) // quantum * quantum)
    return replace(machine, llc=replace(machine.llc, capacity_bytes=capacity))


def lease_cfg(**kwargs) -> ServeConfig:
    defaults = dict(
        policy=StrictPolicy(),
        machine=tiny_machine(),
        sanitize=True,
        lease_ttl_s=0.3,
        lease_check_s=0.05,
    )
    defaults.update(kwargs)
    return ServeConfig(**defaults)


async def boot(tmp_path, cfg):
    server = AdmissionServer(cfg)
    sock = str(tmp_path / "serve.sock")
    await server.start(unix_path=sock)
    return server, sock


class TestHelloHeartbeat:
    def test_heartbeat_requires_identity(self, tmp_path):
        async def scenario():
            server, sock = await boot(tmp_path, lease_cfg())
            client = await ServeClient.connect(unix_path=sock)
            with pytest.raises(ServeReplyError) as err:
                await client.heartbeat()
            assert err.value.code == ErrorCode.NOT_BOUND
            await client.close()
            await server.abort()

        asyncio.run(scenario())

    def test_hello_binds_and_heartbeat_renews(self, tmp_path):
        async def scenario():
            server, sock = await boot(tmp_path, lease_cfg(lease_ttl_s=5.0))
            client = await ServeClient.connect(unix_path=sock)
            hello = await client.hello("alice")
            assert hello["client"] == "alice"
            assert hello["resumed"] is False
            assert hello["lease_ttl_s"] == 5.0
            assert hello["open"] == []

            beat = await client.heartbeat()
            assert beat["client"] == "alice"
            assert 0.0 < beat["lease_remaining_s"] <= 5.0
            assert beat["open_periods"] == 0
            assert server.service.c_heartbeats.value == 1

            # re-hello on the same connection is a plain renewal
            again = await client.hello("alice")
            assert again["resumed"] is True
            await client.close()
            await server.abort()

        asyncio.run(scenario())

    def test_one_connection_speaks_for_one_client(self, tmp_path):
        async def scenario():
            server, sock = await boot(tmp_path, lease_cfg())
            client = await ServeClient.connect(unix_path=sock)
            await client.hello("alice")
            with pytest.raises(ServeReplyError) as err:
                await client.hello("bob")
            assert err.value.code == ErrorCode.BAD_REQUEST
            await client.close()
            await server.abort()

        asyncio.run(scenario())

    def test_anonymous_periods_cannot_be_adopted(self, tmp_path):
        async def scenario():
            server, sock = await boot(tmp_path, lease_cfg())
            client = await ServeClient.connect(unix_path=sock)
            await client.pp_begin(MB(1))
            with pytest.raises(ServeReplyError) as err:
                await client.hello("alice")
            assert err.value.code == ErrorCode.BAD_REQUEST
            await client.close()
            await server.abort()

        asyncio.run(scenario())

    def test_new_connection_takes_over_the_identity(self, tmp_path):
        async def scenario():
            server, sock = await boot(tmp_path, lease_cfg(lease_ttl_s=5.0))
            first = await ServeClient.connect(unix_path=sock)
            begun = await first.hello("alice")
            assert begun["resumed"] is False

            second = await ServeClient.connect(unix_path=sock)
            hello = await second.hello("alice")
            assert hello["resumed"] is True
            # the old socket was closed by the takeover
            assert (await first.framer.read()) == b""
            beat = await second.heartbeat()
            assert beat["client"] == "alice"
            await first.close()
            await second.close()
            await server.abort()

        asyncio.run(scenario())


class TestReaper:
    def test_dead_client_is_reclaimed_and_waiter_admitted(self, tmp_path):
        async def scenario():
            server, sock = await boot(tmp_path, lease_cfg())
            service = server.service

            holder = await ServeClient.connect(unix_path=sock)
            await holder.hello("holder")
            held = await holder.pp_begin(MB(3), token="t-held")
            assert held["admitted"] is True

            waiter = await ServeClient.connect(unix_path=sock)
            begin = asyncio.ensure_future(waiter.pp_begin(MB(3)))
            await asyncio.sleep(0.1)
            assert not begin.done()  # strict bound: 3+3 > 4 MB, parked

            # the holder crashes: hard connection drop, no pp_end
            holder.framer.transport.abort()

            # within the lease TTL the reaper reclaims the dead client's
            # period and the parked waiter is admitted
            reply = await asyncio.wait_for(begin, 3.0)
            assert reply["admitted"] is True
            assert service.c_leases_reclaimed.value == 1
            assert service.c_lease_periods.value == 1
            # the record is gone with its connection
            assert service.leases.get("holder") is None

            await waiter.pp_end(reply["pp_id"])
            await holder.close()
            await waiter.close()
            await server.abort()
            assert service.sanitizer.ok, service.sanitizer.summary()

        asyncio.run(scenario())

    def test_silent_client_on_live_socket_loses_periods_not_identity(
        self, tmp_path
    ):
        async def scenario():
            server, sock = await boot(tmp_path, lease_cfg())
            service = server.service

            client = await ServeClient.connect(unix_path=sock)
            await client.hello("sleepy")
            begun = await client.pp_begin(MB(1), token="t-s")

            # wedge: the socket stays open but no frames flow past the TTL
            await asyncio.sleep(1.0)

            assert service.c_leases_reclaimed.value >= 1
            # the period was reclaimed ...
            with pytest.raises(ServeReplyError) as err:
                await client.pp_end(begun["pp_id"])
            assert err.value.code == ErrorCode.UNKNOWN_PERIOD
            # ... but the identity survives on its live connection
            assert service.leases.get("sleepy") is not None

            await client.close()
            await server.abort()
            assert service.sanitizer.ok, service.sanitizer.summary()

        asyncio.run(scenario())

    def test_heartbeats_keep_an_idle_client_alive(self, tmp_path):
        async def scenario():
            server, sock = await boot(tmp_path, lease_cfg())
            service = server.service
            client = await ServeClient.connect(unix_path=sock)
            await client.hello("beater")
            begun = await client.pp_begin(MB(1))
            for _ in range(8):
                await asyncio.sleep(0.1)
                await client.heartbeat()
            # 0.8 s idle-but-beating across a 0.3 s TTL: nothing reclaimed
            assert service.c_leases_reclaimed.value == 0
            await client.pp_end(begun["pp_id"])
            await client.close()
            await server.abort()

        asyncio.run(scenario())
