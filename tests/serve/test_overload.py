"""Overload control: adaptive hints, sojourn sheds, quotas, slow consumers,
the client circuit breaker, and cluster brownout.

Same conventions as test_server.py: no pytest-asyncio (each test drives its
own loop with ``asyncio.run``), servers bind unix sockets under ``tmp_path``
with the online sanitizer attached, and every scenario must end with clean
books — an overload path that sheds a request but leaks its demand fails
here even if the protocol-level assertions pass.
"""

import asyncio
import random
import time
from dataclasses import replace

import dataclasses
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_machine_config
from repro.core.api import MB
from repro.core.policy import StrictPolicy
from repro.core.progress_period import ResourceKind, ReuseLevel
from repro.errors import ServeError
from repro.experiments.metrics import LatencySummary
from repro.serve.client import ServeClient, ServeReplyError
from repro.serve.cluster import start_local_cluster
from repro.serve.loadgen import LoadgenReport
from repro.serve.protocol import ErrorCode
from repro.serve.resilient import ResilientServeClient
from repro.serve.server import (
    AdmissionServer,
    ServeConfig,
    adaptive_retry_hint_s,
    quota_refusal,
)


def tiny_machine(capacity_mb: float = 4.0):
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


async def wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


async def finish(server, run_task):
    server.request_drain()
    await asyncio.wait_for(run_task, 5.0)
    sanitizer = server.service.sanitizer
    assert sanitizer is not None and sanitizer.ok, sanitizer.summary()


async def start_cluster(tmp_path, n=2, seed=0, serve_overrides=None,
                        **frontend_overrides):
    sock = str(tmp_path / "placer.sock")
    serve_kw = dict(
        policy=StrictPolicy(), machine=tiny_machine(4.0), sanitize=True
    )
    serve_kw.update(serve_overrides or {})
    cfg = ServeConfig(**serve_kw)
    cluster = await start_local_cluster(cfg, n, sock, seed=seed)
    overrides = dict(
        health_interval_s=0.05, balance_interval_s=0.05, migrate_after_s=0.1
    )
    overrides.update(frontend_overrides)
    cluster.frontend.cfg = dataclasses.replace(
        cluster.frontend.cfg, **overrides
    )
    return cluster, sock


async def drain(cluster):
    cluster.request_drain()
    return await asyncio.wait_for(cluster.run_until_drained(), 20.0)


_finite = dict(allow_nan=False, allow_infinity=False)


class TestAdaptiveHintFunction:
    def test_empty_queue_returns_the_floor(self):
        assert adaptive_retry_hint_s(0.0, 0.0, 0.1, 2.0) == pytest.approx(0.1)

    def test_full_queue_scales_the_base_4x(self):
        # base = max(floor, p50) = 0.2; full queue -> 0.8, under the cap
        assert adaptive_retry_hint_s(1.0, 0.2, 0.1, 2.0) == pytest.approx(0.8)

    def test_cap_clamps_a_slow_server(self):
        assert adaptive_retry_hint_s(1.0, 60.0, 0.1, 2.0) == pytest.approx(2.0)

    def test_inverted_cap_is_raised_to_the_floor(self):
        assert adaptive_retry_hint_s(0.5, 0.0, 1.0, 0.1) == pytest.approx(1.0)

    @given(
        occupancy=st.floats(-1.0, 2.0, **_finite),
        p50=st.floats(0.0, 100.0, **_finite),
        floor=st.floats(0.001, 10.0, **_finite),
        cap=st.floats(0.001, 10.0, **_finite),
    )
    @settings(max_examples=200, deadline=None)
    def test_hint_always_within_floor_and_cap(self, occupancy, p50, floor, cap):
        hint = adaptive_retry_hint_s(occupancy, p50, floor, cap)
        assert floor <= hint <= max(floor, cap)

    @given(
        occ_a=st.floats(0.0, 1.0, **_finite),
        occ_b=st.floats(0.0, 1.0, **_finite),
        p50=st.floats(0.0, 100.0, **_finite),
        floor=st.floats(0.001, 10.0, **_finite),
        cap=st.floats(0.001, 10.0, **_finite),
    )
    @settings(max_examples=200, deadline=None)
    def test_hint_monotone_in_occupancy(self, occ_a, occ_b, p50, floor, cap):
        lo, hi = sorted((occ_a, occ_b))
        assert adaptive_retry_hint_s(lo, p50, floor, cap) <= adaptive_retry_hint_s(
            hi, p50, floor, cap
        )

    @given(
        occupancy=st.floats(-1.0, 2.0, **_finite),
        p50=st.floats(0.0, 100.0, **_finite),
    )
    @settings(max_examples=200, deadline=None)
    def test_default_bounds_give_the_constant_hint(self, occupancy, p50):
        # floor == cap == 0.05 is the server's default: every shed reply
        # carries exactly the 0.05 s constant hint, whatever the load
        assert adaptive_retry_hint_s(occupancy, p50, 0.05, 0.05) == 0.05


class TestQuotaFunction:
    def test_global_bound_wins_even_for_a_new_client(self):
        assert quota_refusal(4, 0, 4, None) == "max_pending"

    def test_per_client_bound_binds_before_the_global_one(self):
        assert quota_refusal(2, 2, 8, 2) == "max_pending_per_client"
        assert quota_refusal(2, 0, 8, 2) is None

    def test_none_per_client_is_unbounded(self):
        assert quota_refusal(7, 7, 8, None) is None

    @given(
        arrivals=st.lists(st.sampled_from("abcd"), max_size=40),
        max_pending=st.integers(1, 8),
        per_client=st.one_of(st.none(), st.integers(1, 4)),
    )
    @settings(max_examples=200, deadline=None)
    def test_admitted_aggregate_never_exceeds_either_bound(
        self, arrivals, max_pending, per_client
    ):
        waiting = {}
        for client in arrivals:
            if quota_refusal(
                sum(waiting.values()), waiting.get(client, 0), max_pending,
                per_client,
            ) is None:
                waiting[client] = waiting.get(client, 0) + 1
        assert sum(waiting.values()) <= max_pending
        if per_client is not None:
            assert all(v <= per_client for v in waiting.values())


class TestAdaptiveHintServer:
    def test_default_off_hint_is_the_constant_retry_after(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(tmp_path, max_pending=1)
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            reply_a = await a.pp_begin(MB(3))
            park_task = asyncio.ensure_future(b.pp_begin(MB(3)))
            await wait_until(lambda: len(server.service.waitlist) == 1)
            c = await ServeClient.connect(unix_path=sock)
            with pytest.raises(ServeReplyError) as info:
                await c.pp_begin(MB(1))
            assert info.value.code == ErrorCode.RETRY_AFTER
            assert info.value.retry_after_s == pytest.approx(0.05)
            await a.pp_end(reply_a["pp_id"])
            reply_b = await asyncio.wait_for(park_task, 5.0)
            await b.pp_end(reply_b["pp_id"])
            for client in (a, b, c):
                await client.close()
            await finish(server, run_task)

        asyncio.run(scenario())

    def test_shed_reply_carries_a_bounded_adaptive_hint(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(
                tmp_path,
                max_pending=1,
                retry_hint_floor_s=0.05,
                retry_hint_cap_s=2.0,
            )
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            reply_a = await a.pp_begin(MB(3))
            park_task = asyncio.ensure_future(b.pp_begin(MB(3)))
            await wait_until(lambda: len(server.service.waitlist) == 1)
            c = await ServeClient.connect(unix_path=sock)
            with pytest.raises(ServeReplyError) as info:
                await c.pp_begin(MB(1))
            assert info.value.code == ErrorCode.RETRY_AFTER
            hint = info.value.retry_after_s
            # occupancy is 1/1: the hint sits in [floor, cap] by the pinned
            # formula, and differs from the legacy constant
            assert 0.05 <= hint <= 2.0
            assert server.service.c_retry_after.value == 1
            await a.pp_end(reply_a["pp_id"])
            reply_b = await asyncio.wait_for(park_task, 5.0)
            await b.pp_end(reply_b["pp_id"])
            for client in (a, b, c):
                await client.close()
            await finish(server, run_task)

        asyncio.run(scenario())


class TestParkDeadline:
    def test_sojourn_deadline_sheds_with_typed_park_timeout(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(
                tmp_path,
                park_timeout_s=0.15,
                retry_hint_floor_s=0.05,
                retry_hint_cap_s=2.0,
            )
            service = server.service
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            reply_a = await a.pp_begin(MB(3))
            with pytest.raises(ServeReplyError) as info:
                await b.pp_begin(MB(3))
            error = info.value
            assert error.code == ErrorCode.PARK_TIMEOUT
            assert error.retry_after_s is not None
            assert error.reply["error"]["waited_s"] == pytest.approx(0.15)
            assert service.c_park_timeout.value == 1
            await wait_until(lambda: len(service.waitlist) == 0)
            # the shed wait is recorded in the sojourn histogram
            assert service.h_sojourn.count == 1
            await a.pp_end(reply_a["pp_id"])
            await a.close()
            await b.close()
            await finish(server, run_task)

        asyncio.run(scenario())


class TestPerClientQuota:
    def test_client_at_quota_gets_retry_after(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(
                tmp_path, max_pending_per_client=1
            )
            service = server.service
            a = await ServeClient.connect(unix_path=sock)
            reply_a = await a.pp_begin(MB(2))
            # Park one period on the named record directly (a pipelined
            # second begin on one connection is buffered behind the park,
            # so the quota is exercised via the lease-held record).
            record, resumed = service.leases.get_or_create(
                "greedy", service.make_record
            )
            assert not resumed
            parked_pp = record.api.pp_begin(
                ResourceKind.LLC, MB(3), ReuseLevel.LOW
            )
            await wait_until(lambda: len(service.waitlist) == 1)
            g = await ServeClient.connect(unix_path=sock)
            await g.hello("greedy")
            with pytest.raises(ServeReplyError) as info:
                await g.pp_begin(MB(1))
            assert info.value.code == ErrorCode.RETRY_AFTER
            assert info.value.retry_after_s is not None
            assert "per-client quota" in info.value.detail
            assert service.c_quota_rejects.value == 1
            # an under-quota client is still served normally
            reply_b = await a.pp_begin(MB(1))
            assert reply_b["admitted"] is True
            record.api.pp_cancel(parked_pp)
            await a.pp_end(reply_a["pp_id"])
            await a.pp_end(reply_b["pp_id"])
            await a.close()
            await g.close()
            await finish(server, run_task)

        asyncio.run(scenario())


class TestSlowConsumer:
    def test_stalled_reader_is_disconnected_within_the_write_budget(
        self, tmp_path
    ):
        async def scenario():
            server, sock, run_task = await start_server(
                tmp_path, write_timeout_s=0.2
            )
            service = server.service
            reader, writer = await asyncio.open_unix_connection(sock)
            # Flood pipelined stats requests and never read a reply: the
            # reply stream backs up through the transport and the kernel
            # socket buffers until the server's bounded drain trips.
            from repro.serve import protocol

            frames = b"".join(
                protocol.encode_frame(
                    {"v": protocol.PROTOCOL_VERSION, "id": i, "op": "stats"}
                )
                for i in range(1, 4001)
            )
            writer.write(frames)
            await wait_until(
                lambda: server.c_slow_disconnects.value == 1, timeout=15.0
            )
            writer.transport.abort()
            # the flood client was anonymous: nothing to reap, books clean
            await wait_until(lambda: len(service.monitor.registry) == 0)
            await finish(server, run_task)

        asyncio.run(scenario())


class TestCircuitBreaker:
    def test_breaker_opens_fast_fails_and_recovers_half_open(self, tmp_path):
        async def scenario():
            sock = str(tmp_path / "late.sock")
            client = ResilientServeClient(
                unix_path=sock,
                client_id="cb",
                connect_timeout_s=0.5,
                max_attempts=2,
                backoff_base_s=0.001,
                backoff_cap_s=0.002,
                breaker_threshold=2,
                breaker_reset_s=0.2,
                rng=random.Random(0),
            )
            with pytest.raises(ServeError):
                await client.query()
            assert client.breaker_opens == 1
            t0 = time.monotonic()
            with pytest.raises(ServeError, match="circuit breaker open"):
                await client.query()
            assert time.monotonic() - t0 < 0.1  # no connect attempts made
            assert client.breaker_fast_fails >= 1
            # the server comes up; after the (jittered) reset window one
            # half-open probe succeeds and closes the breaker
            server = AdmissionServer(ServeConfig(
                policy=StrictPolicy(), machine=tiny_machine(4.0), sanitize=True
            ))
            await server.start(unix_path=sock)
            run_task = asyncio.ensure_future(server.run_until_drained())
            await asyncio.sleep(0.3)  # > 0.2 * 1.25 max jittered reset
            reply = await client.query()
            assert reply["ok"] is True
            assert client.breaker_opens == 1  # did not re-open
            await client.close()
            await finish(server, run_task)

        asyncio.run(scenario())


class TestBrownout:
    def test_brownout_sheds_new_clients_and_releases(self, tmp_path):
        async def scenario():
            cluster, sock = await start_cluster(
                tmp_path,
                n=2,
                brownout_fragmentation=0.05,
                brownout_sweeps=2,
                brownout_retry_s=0.42,
            )
            frontend = cluster.frontend
            # Two THIN clients (forwarded through the pump, so the
            # front-end observes their demand) saturate both shards.
            a = await ServeClient.connect(unix_path=sock)
            assert (await a.call(
                "hello", client="a", demand_bytes=MB(3), timeout=5.0
            ))["ok"] is True
            b = await ServeClient.connect(unix_path=sock)
            assert (await b.call(
                "hello", client="b", demand_bytes=MB(3), timeout=5.0
            ))["ok"] is True
            # the demand hints make placement deterministic: one per shard
            assignments = frontend.placer.assignments
            assert assignments["a"] != assignments["b"]
            reply_a = await a.pp_begin(MB(3), timeout=5.0)
            reply_b = await b.pp_begin(MB(3), timeout=5.0)
            assert reply_a["admitted"] and reply_b["admitted"]
            await wait_until(lambda: frontend._brownout, timeout=5.0)
            # a new client is shed with typed OVERLOAD + the cluster hint...
            late = await ServeClient.connect(unix_path=sock)
            reply = await late.call_raw("hello", client="late", timeout=5.0)
            assert reply["ok"] is False
            assert reply["error"]["code"] == ErrorCode.OVERLOAD
            assert reply["error"]["retry_after_s"] == pytest.approx(0.42)
            assert frontend.c_brownout_shed.value >= 1
            await late.close()
            # ...and a redirect-following resilient client gets the same
            # typed error instead of hammering the front-end
            resilient = ResilientServeClient(
                unix_path=sock, client_id="latecomer",
                backoff_base_s=0.001, max_attempts=2,
            )
            with pytest.raises(ServeReplyError) as info:
                await resilient.query()
            assert info.value.code == ErrorCode.OVERLOAD
            assert info.value.retry_after_s == pytest.approx(0.42)
            await resilient.close()
            # established clients ride out the brownout untouched
            assert (await a.query())["ok"] is True
            # headroom returns -> brownout releases -> new clients admitted
            await a.pp_end(reply_a["pp_id"], timeout=5.0)
            await b.pp_end(reply_b["pp_id"], timeout=5.0)
            await wait_until(lambda: not frontend._brownout, timeout=5.0)
            late2 = await ServeClient.connect(unix_path=sock)
            assert (await late2.call(
                "hello", client="late", timeout=5.0
            ))["ok"] is True
            begun = await late2.pp_begin(MB(1), timeout=5.0)
            assert begun["admitted"] is True
            await late2.pp_end(begun["pp_id"], timeout=5.0)
            for client in (a, b, late2):
                await client.close()
            assert await drain(cluster) == 0

        asyncio.run(scenario())


    def test_brownout_engages_on_begins_without_demand_hints(self, tmp_path):
        """The brownout yardstick comes from the shards' declared-demand
        peaks, so it engages for resilient clients that send no hint."""
        async def scenario():
            cluster, sock = await start_cluster(
                tmp_path,
                n=2,
                brownout_fragmentation=0.05,
                brownout_sweeps=2,
                brownout_retry_s=0.42,
            )
            frontend = cluster.frontend
            clients, periods = [], []
            for name in ("a", "b"):
                client = ResilientServeClient(
                    unix_path=sock, client_id=name,
                    backoff_base_s=0.01, max_attempts=10,
                )
                # "b" parks behind "a" and migrates to the free shard
                periods.append(await asyncio.wait_for(
                    client.pp_begin(MB(3)), 10.0
                ))
                clients.append(client)
            assignments = frontend.placer.assignments
            assert assignments["a"] != assignments["b"]
            await wait_until(lambda: frontend._brownout, timeout=5.0)
            assert frontend._peak_demand == {"llc": MB(3)}
            late = await ServeClient.connect(unix_path=sock)
            reply = await late.call_raw("hello", client="late", timeout=5.0)
            assert reply["error"]["code"] == ErrorCode.OVERLOAD
            await late.close()
            for client, begun in zip(clients, periods):
                await client.pp_end(begun["pp_id"])
                await client.close()
            await wait_until(lambda: not frontend._brownout, timeout=5.0)
            assert await drain(cluster) == 0

        asyncio.run(scenario())


class TestFramingComposition:
    def test_shed_errors_identical_over_ndjson_and_binary(self, tmp_path):
        async def scenario():
            server, sock, run_task = await start_server(
                tmp_path,
                max_pending=1,
                retry_hint_floor_s=0.05,
                retry_hint_cap_s=2.0,
            )
            a = await ServeClient.connect(unix_path=sock)
            b = await ServeClient.connect(unix_path=sock)
            reply_a = await a.pp_begin(MB(3))
            park_task = asyncio.ensure_future(b.pp_begin(MB(3)))
            await wait_until(lambda: len(server.service.waitlist) == 1)
            ndjson = await ServeClient.connect(unix_path=sock)
            shed_nd = await ndjson.call_raw(
                "pp_begin", demand_bytes=MB(1), reuse="low", resource="llc"
            )
            binary = await ServeClient.connect(unix_path=sock)
            ack = await binary.hello("bin-probe", binary=True)
            assert ack["binary"] is True and binary.binary is True
            shed_bin = await binary.call_raw(
                "pp_begin", demand_bytes=MB(1), reuse="low", resource="llc"
            )
            # the typed error is framing-independent: same code, message,
            # and (no admissions in between) the same adaptive hint
            for shed in (shed_nd, shed_bin):
                assert shed["ok"] is False
                assert shed["error"]["code"] == ErrorCode.RETRY_AFTER
                assert 0.05 <= shed["error"]["retry_after_s"] <= 2.0
            assert shed_nd["error"] == shed_bin["error"]
            await a.pp_end(reply_a["pp_id"])
            reply_b = await asyncio.wait_for(park_task, 5.0)
            await b.pp_end(reply_b["pp_id"])
            for client in (a, b, ndjson, binary):
                await client.close()
            await finish(server, run_task)

        asyncio.run(scenario())

    def test_park_timeout_rides_through_the_cluster_pump(self, tmp_path):
        async def scenario():
            cluster, sock = await start_cluster(
                tmp_path,
                n=1,
                serve_overrides=dict(
                    park_timeout_s=0.2,
                    retry_hint_floor_s=0.05,
                    retry_hint_cap_s=2.0,
                ),
            )
            a = await ServeClient.connect(unix_path=sock)
            await a.hello("holder")
            reply_a = await a.pp_begin(MB(3), timeout=5.0)
            assert reply_a["admitted"] is True
            b = await ServeClient.connect(unix_path=sock)
            await b.hello("shedme")
            reply = await b.call_raw(
                "pp_begin", demand_bytes=MB(3), reuse="low", resource="llc",
                timeout=5.0,
            )
            # the shard's typed sojourn shed is forwarded verbatim
            assert reply["ok"] is False
            assert reply["error"]["code"] == ErrorCode.PARK_TIMEOUT
            assert reply["error"]["waited_s"] == pytest.approx(0.2)
            assert reply["error"]["retry_after_s"] is not None
            await a.pp_end(reply_a["pp_id"], timeout=5.0)
            await a.close()
            await b.close()
            assert await drain(cluster) == 0

        asyncio.run(scenario())


class TestLoadgenShedTaxonomy:
    def _report(self, **overrides):
        empty = LatencySummary(
            count=0, mean=float("nan"), p50=float("nan"), p90=float("nan"),
            p99=float("nan"), max=float("nan"),
        )
        base = dict(
            mode="closed", wall_s=1.0, sessions_started=4,
            sessions_completed=4, sessions_failed=0, calls=10, admitted=6,
            parked=1, forced=0, retries=3, dropped_calls=0, park_timeouts=1,
            draining_rejects=0, protocol_errors=1, overload_sheds=2,
            shed_calls=3, sheds_without_hint=0, reconnects=0,
            lost_periods=0, deduped=0, redirects=0, throughput_pps=6.0,
            admission_latency=empty, park_time=empty,
            utilization_mean=0.5, utilization_peak=0.9,
        )
        base.update(overrides)
        return LoadgenReport(**base)

    def test_outcome_counts_round_trip_and_rate_is_described(self):
        report = self._report()
        payload = report.to_dict()
        assert payload["shed_calls"] == 3
        assert payload["overload_sheds"] == 2
        assert payload["sheds_without_hint"] == 0
        text = report.describe()
        assert "shed rate 30.0%" in text
        assert "3 shed (2 OVERLOAD)" in text
        assert "MISSING" not in text

    def test_missing_hints_are_called_out(self):
        text = self._report(sheds_without_hint=2).describe()
        assert "2 shed reply(ies) MISSING a retry hint" in text
