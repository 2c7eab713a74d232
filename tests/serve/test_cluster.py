"""Cluster front-end: redirect, forward, aggregation, equivalence, migration."""

import asyncio
import dataclasses
from dataclasses import replace

import pytest

from repro.config import default_machine_config
from repro.core.api import MB
from repro.core.policy import StrictPolicy
from repro.serve.client import ServeClient
from repro.serve.loadgen import LoadgenConfig, fig4_scripts, run_loadgen
from repro.serve.protocol import ErrorCode
from repro.serve.resilient import ResilientServeClient
from repro.serve.server import AdmissionServer, ServeConfig
from repro.serve.cluster import start_local_cluster

CAPACITY_MB = 4.0


def tiny_machine(capacity_mb: float = CAPACITY_MB):
    machine = default_machine_config()
    quantum = machine.llc.line_bytes * machine.llc.associativity
    capacity = max(quantum, int(capacity_mb * 1024 * 1024) // quantum * quantum)
    return replace(machine, llc=replace(machine.llc, capacity_bytes=capacity))


async def start_cluster(tmp_path, n=2, capacity_mb=CAPACITY_MB, seed=0,
                        supervise=False, journal=False, serve_overrides=None,
                        **frontend_overrides):
    """A local cluster with test-speed health/balance loops.

    Supervision is off by default so fault-path tests control shard
    lifetime themselves; supervision tests opt in (usually together with
    ``journal=True`` so restarts have something to replay).
    """
    sock = str(tmp_path / "placer.sock")
    cfg = ServeConfig(
        policy=StrictPolicy(), machine=tiny_machine(capacity_mb), sanitize=True
    )
    if journal:
        cfg = replace(cfg, journal_path=str(tmp_path / "shard.journal"))
    cfg = replace(cfg, **(serve_overrides or {}))
    cluster = await start_local_cluster(
        cfg, n, sock, seed=seed, supervise=supervise
    )
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


class TestRedirect:
    def test_redirecting_hello_gets_a_typed_shard_address(self, tmp_path):
        async def scenario():
            cluster, sock = await start_cluster(tmp_path)
            client = await ServeClient.connect(unix_path=sock)
            reply = await client.call_raw(
                "hello", client="seeker", redirect=True, timeout=5.0
            )
            assert reply["ok"] is False
            error = reply["error"]
            assert error["code"] == ErrorCode.REDIRECT
            shard = error["shard"]
            assert shard["name"].startswith("shard")
            assert shard["unix_path"].endswith(f".{shard['name']}")
            await client.close()
            assert await drain(cluster) == 0

        asyncio.run(scenario())

    def test_call_raw_returns_the_redirect_unchanged(self, tmp_path):
        async def scenario():
            cluster, sock = await start_cluster(tmp_path)
            client = await ServeClient.connect(unix_path=sock)
            reply = await client.call_raw(
                "hello", client="raw", redirect=True, timeout=5.0
            )
            name = cluster.frontend.placer.assignments["raw"]
            assert reply == {
                "v": 1, "id": 1, "ok": False,
                "error": {
                    "code": ErrorCode.REDIRECT,
                    "message": f"assigned to shard {name}",
                    "shard": {"name": name, "unix_path": f"{sock}.{name}"},
                },
            }
            # call_raw did not follow: the connection still reaches the
            # front-end
            assert (await client.query(timeout=5.0))["cluster"] is True
            await client.close()
            assert await drain(cluster) == 0

        asyncio.run(scenario())

    def test_frontend_rejects_the_shard_migrate_verb(self, tmp_path):
        async def scenario():
            cluster, sock = await start_cluster(tmp_path)
            client = await ServeClient.connect(unix_path=sock)
            reply = await client.call_raw(
                "migrate", client="c1",
                shard={"name": "shard1", "unix_path": f"{sock}.shard1"},
                timeout=5.0,
            )
            assert reply["ok"] is False
            assert reply["error"]["code"] == ErrorCode.BAD_REQUEST
            assert cluster.frontend.c_migrations.value == 0
            await client.close()
            assert await drain(cluster) == 0

        asyncio.run(scenario())

    def test_redirected_reservations_expire_after_a_lease_ttl(self, tmp_path):
        """A redirected client's placement reservation is released one
        shard lease TTL after the REDIRECT, so clients that hang up
        without a begin do not hold the shards' scored capacity."""
        async def scenario():
            cluster, sock = await start_cluster(
                tmp_path, serve_overrides=dict(lease_ttl_s=0.2)
            )
            fe = cluster.frontend
            for i in range(6):
                client = await ServeClient.connect(unix_path=sock)
                reply = await client.call_raw(
                    "hello", client=f"ghost-{i}", redirect=True,
                    demand_bytes=MB(1), timeout=5.0,
                )
                assert reply["error"]["code"] == ErrorCode.REDIRECT
                await client.close()
            shards = list(fe.placer.shards.values())
            assert sum(len(s.clients) for s in shards) == 6
            await asyncio.sleep(0.5)
            for shard in shards:
                assert shard.assigned == {}
                assert shard.clients == {}
                assert shard.fits({"llc": MB(3)})
            assert await drain(cluster) == 0

        asyncio.run(scenario())

    def test_resilient_client_follows_the_redirect(self, tmp_path):
        async def scenario():
            cluster, sock = await start_cluster(tmp_path)
            client = ResilientServeClient(
                unix_path=sock, client_id="hopper",
                backoff_base_s=0.01, max_attempts=10,
            )
            begun = await client.pp_begin(MB(1))
            assert begun["admitted"] is True
            assert client.redirects == 1
            # after the redirect the client speaks to the shard directly
            assert cluster.frontend.c_redirects.value == 1
            await client.pp_end(begun["pp_id"])
            await client.close()
            assert await drain(cluster) == 0

        asyncio.run(scenario())

    def test_shard_death_falls_back_and_replaces(self, tmp_path):
        async def scenario():
            cluster, sock = await start_cluster(tmp_path)
            client = ResilientServeClient(
                unix_path=sock, client_id="survivor",
                backoff_base_s=0.01, max_attempts=40,
            )
            begun = await client.pp_begin(MB(1))
            home = cluster.frontend.placer.assignments["survivor"]
            victim = next(
                s for s in cluster.servers
                if s.cfg.shard_name == home
            )
            await victim.abort()
            # next call: shard socket is gone, the client falls back to the
            # front-end, which re-places it on the surviving shard
            reply = await asyncio.wait_for(client.pp_begin(MB(1)), 15.0)
            assert reply["admitted"] is True
            now = cluster.frontend.placer.assignments["survivor"]
            assert now != home
            assert cluster.frontend.placer.replacements_total >= 1
            await client.pp_end(reply["pp_id"])
            await client.close()
            cluster.servers.remove(victim)
            assert await drain(cluster) == 0
            assert begun["admitted"] is True

        asyncio.run(scenario())


class TestForward:
    def test_thin_client_is_forwarded_transparently(self, tmp_path):
        async def scenario():
            cluster, sock = await start_cluster(tmp_path)
            client = await ServeClient.connect(unix_path=sock)
            await client.hello("plain")
            begun = await client.pp_begin(MB(1), timeout=5.0)
            assert begun["admitted"] is True
            done = await client.pp_end(begun["pp_id"], timeout=5.0)
            assert done["released"] is True
            assert cluster.frontend.c_redirects.value == 1
            await client.close()
            assert await drain(cluster) == 0

        asyncio.run(scenario())

    @pytest.mark.parametrize("binary", [False, True])
    def test_thin_loadgen_reports_the_redirects_it_followed(
        self, tmp_path, binary
    ):
        async def scenario():
            cluster, sock = await start_cluster(tmp_path)
            # 1 MB periods on 4 MB shards never park, so no shard migrates
            # a begin: every redirect is the front-end's
            load_cfg = LoadgenConfig(
                mode="closed", clients=3, sessions=9, binary=binary,
            )
            report = await run_loadgen(
                fig4_scripts(demand_mb=1.0, hold_s=0.001), load_cfg,
                unix_path=sock,
            )
            assert report.sessions_failed == 0
            assert report.protocol_errors == 0
            assert report.redirects == 3  # one per thin client
            assert report.redirects == cluster.frontend.c_redirects.value
            assert await drain(cluster) == 0

        asyncio.run(scenario())

    def test_binary_negotiation_rides_through_the_pump(self, tmp_path):
        async def scenario():
            cluster, sock = await start_cluster(tmp_path)
            client = await ServeClient.connect(unix_path=sock)
            ack = await client.hello("bin", binary=True)
            assert ack["binary"] is True
            assert client.binary is True
            # frames after the ack travel length-prefixed on both legs
            begun = await client.pp_begin(MB(1), timeout=5.0)
            assert begun["admitted"] is True
            await client.pp_end(begun["pp_id"], timeout=5.0)
            await client.close()
            assert await drain(cluster) == 0

        asyncio.run(scenario())

    def test_anonymous_begin_is_placed_and_forwarded(self, tmp_path):
        async def scenario():
            cluster, sock = await start_cluster(tmp_path)
            client = await ServeClient.connect(unix_path=sock)
            begun = await client.pp_begin(MB(1), timeout=5.0)
            assert begun["admitted"] is True
            await client.pp_end(begun["pp_id"], timeout=5.0)
            await client.close()
            assert cluster.frontend.c_redirects.value == 1
            assert await drain(cluster) == 0

        asyncio.run(scenario())


class TestAggregation:
    def test_query_sums_resources_across_shards(self, tmp_path):
        async def scenario():
            cluster, sock = await start_cluster(tmp_path, n=3)
            holders = []
            for i in range(3):
                c = await ServeClient.connect(unix_path=sock)
                await c.hello(f"holder-{i}")
                begun = await c.pp_begin(MB(2), timeout=5.0)
                holders.append((c, begun["pp_id"]))
            probe = await ServeClient.connect(unix_path=sock)
            q = await probe.query()
            assert q["cluster"] is True
            assert q["open_periods"] == 3
            llc = q["resources"]["llc"]
            assert llc["usage_bytes"] == 3 * MB(2)
            # 3 shards of per-shard capacity: the cluster manages the sum
            assert llc["capacity_bytes"] > 2 * MB(CAPACITY_MB)
            assert set(q["shards"]) == {"shard0", "shard1", "shard2"}
            assert q["placer"]["placements_total"] >= 3
            stats = await probe.stats()
            assert stats["counters"]["redirects_total"] == 3
            assert stats["shard_counters"]["requests_total"] > 0
            await probe.close()
            for c, pp_id in holders:
                await c.pp_end(pp_id, timeout=5.0)
                await c.close()
            assert await drain(cluster) == 0

        asyncio.run(scenario())

    def test_per_period_query_is_rejected_at_the_frontend(self, tmp_path):
        async def scenario():
            cluster, sock = await start_cluster(tmp_path)
            probe = await ServeClient.connect(unix_path=sock)
            reply = await probe.call_raw("query", pp_id=1, timeout=5.0)
            assert reply["ok"] is False
            assert reply["error"]["code"] == ErrorCode.BAD_REQUEST
            await probe.close()
            assert await drain(cluster) == 0

        asyncio.run(scenario())


class TestEquivalence:
    """A 1-shard cluster admits exactly like the bare server it wraps."""

    SESSIONS = [2.0, 3.5, 1.0, 3.9, 0.5, 2.2, 1.7, 3.0]

    async def _run_sessions(self, sock):
        decisions = []
        base = None
        for i, demand_mb in enumerate(self.SESSIONS):
            client = await ServeClient.connect(unix_path=sock)
            await client.hello(f"eq-{i}")
            begun = await client.pp_begin(MB(demand_mb), timeout=10.0)
            # pp_ids come from a process-global counter; compare the
            # *relative* allocation sequence, which is what admission
            # equivalence actually promises
            base = begun["pp_id"] if base is None else base
            decisions.append(
                (begun["pp_id"] - base, begun["admitted"], begun["forced"])
            )
            await client.pp_end(begun["pp_id"], timeout=10.0)
            await client.close()
        return decisions

    def test_single_shard_cluster_matches_bare_server(self, tmp_path):
        async def scenario():
            bare_sock = str(tmp_path / "bare.sock")
            bare = AdmissionServer(ServeConfig(
                policy=StrictPolicy(), machine=tiny_machine(), sanitize=True
            ))
            await bare.start(unix_path=bare_sock)
            bare_decisions = await self._run_sessions(bare_sock)
            bare.request_drain()
            await asyncio.wait_for(bare.run_until_drained(), 10.0)

            cluster, sock = await start_cluster(tmp_path, n=1)
            cluster_decisions = await self._run_sessions(sock)
            assert await drain(cluster) == 0
            assert cluster_decisions == bare_decisions

        asyncio.run(scenario())


async def _wait_for(predicate, timeout_s=10.0, interval_s=0.05):
    deadline = asyncio.get_event_loop().time() + timeout_s
    while asyncio.get_event_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval_s)
    return predicate()


class TestSupervision:
    OVERRIDES = dict(
        supervise_interval_s=0.05, restart_backoff_s=0.05,
        restart_backoff_cap_s=0.2, crash_loop_window_s=0.0,
        restart_ready_timeout_s=10.0,
    )

    def test_supervisor_restarts_dead_shard_from_journal(self, tmp_path):
        """SIGKILL-equivalent shard death: the supervisor restarts the
        shard from its own journal and the open period is exactly
        restored — admitted charge and all (satellite d)."""
        async def scenario():
            cluster, sock = await start_cluster(
                tmp_path, n=2, supervise=True, journal=True, **self.OVERRIDES
            )
            fe = cluster.frontend
            client = ResilientServeClient(
                unix_path=sock, client_id="phoenix",
                backoff_base_s=0.01, max_attempts=40,
            )
            begun = await client.pp_begin(MB(1))
            assert begun["admitted"] is True
            home = fe.placer.assignments["phoenix"]
            victim = next(
                s for s in cluster.servers if s.cfg.shard_name == home
            )
            await victim.abort()

            assert await _wait_for(lambda: fe.c_shard_restarts.value >= 1)
            assert fe.placer.shards[home].alive is True
            assert fe.placer.revivals_total >= 1
            assert fe.quarantined == set()
            fresh = next(
                s for s in cluster.servers if s.cfg.shard_name == home
            )
            assert fresh is not victim
            assert fresh.service.replayed_periods == 1

            # the restored period still charges the shard's capacity
            probe = await ServeClient.connect(unix_path=f"{sock}.{home}")
            q = await probe.query()
            assert q["open_periods"] == 1
            assert q["resources"]["llc"]["usage_bytes"] == MB(1)
            await probe.close()

            # and the client can close it out against the new incarnation
            done = await asyncio.wait_for(client.pp_end(begun["pp_id"]), 10.0)
            assert done["released"] is True
            await client.close()
            # the aborted incarnation was swapped out before its journal
            # was flushed; the replacement drains with a clean sanitizer
            assert await drain(cluster) == 0

        asyncio.run(scenario())

    def test_draining_shard_is_not_marked_dead_by_the_sweep(self, tmp_path):
        """A shard that is down because *we* are restarting it must not
        be declared dead by the health sweep or the data path — that
        would skew shards_alive and could flip brownout (satellite b)."""
        async def scenario():
            cluster, sock = await start_cluster(tmp_path, n=2)
            fe = cluster.frontend
            fe.placer.mark_draining("shard0")
            victim = next(
                s for s in cluster.servers if s.cfg.shard_name == "shard0"
            )
            await victim.abort()
            for _ in range(3):
                await fe._health_sweep()
            assert fe.placer.shards["shard0"].alive is True
            assert len(fe.placer.alive_shards()) == 2
            # but the placer won't put anyone new on it
            client = await ServeClient.connect(unix_path=sock)
            await client.hello("newcomer")
            begun = await client.pp_begin(MB(1), timeout=5.0)
            assert begun["admitted"] is True
            assert fe.placer.assignments["newcomer"] == "shard1"
            await client.pp_end(begun["pp_id"], timeout=5.0)
            await client.close()
            cluster.servers.remove(victim)
            assert await drain(cluster) == 0

        asyncio.run(scenario())

    def test_crash_looping_shard_is_quarantined(self, tmp_path):
        async def scenario():
            cluster, sock = await start_cluster(
                tmp_path, n=2, supervise=True,
                supervise_interval_s=0.05, restart_backoff_s=0.01,
                restart_backoff_cap_s=0.05, crash_loop_window_s=60.0,
                quarantine_after=2, restart_ready_timeout_s=0.2,
            )
            fe = cluster.frontend
            attempts = 0

            async def failing_restart():
                nonlocal attempts
                attempts += 1
                raise RuntimeError("simulated restart failure")

            fe.register_restarter("shard0", failing_restart)
            victim = next(
                s for s in cluster.servers if s.cfg.shard_name == "shard0"
            )
            await victim.abort()
            cluster.servers.remove(victim)

            assert await _wait_for(lambda: "shard0" in fe.quarantined)
            assert attempts == 2
            # a quarantined shard is not retried
            await asyncio.sleep(0.3)
            assert attempts == 2
            assert fe.placer.shards["shard0"].alive is False
            assert await drain(cluster) == 0

        asyncio.run(scenario())

    def test_unknown_restarter_name_is_rejected(self, tmp_path):
        async def scenario():
            cluster, sock = await start_cluster(tmp_path, n=2)
            with pytest.raises(Exception):
                cluster.frontend.register_restarter(
                    "shard9", lambda: None
                )
            assert await drain(cluster) == 0

        asyncio.run(scenario())


class TestRollingRestart:
    OVERRIDES = dict(
        supervise_interval_s=0.05, restart_backoff_s=0.05,
        restart_backoff_cap_s=0.2, crash_loop_window_s=0.0,
        restart_ready_timeout_s=10.0, shard_drain_grace_s=2.0,
    )

    def test_rolling_restart_cycles_every_shard(self, tmp_path):
        async def scenario():
            cluster, sock = await start_cluster(
                tmp_path, n=2, supervise=True, journal=True, **self.OVERRIDES
            )
            fe = cluster.frontend
            before = list(cluster.servers)
            results = await asyncio.wait_for(
                cluster.rolling_restart(grace_s=1.0), 30.0
            )
            assert results == {"shard0": True, "shard1": True}
            assert fe.c_shard_restarts.value == 2
            assert fe.c_shard_drains.value == 2
            assert len(fe.placer.alive_shards()) == 2
            assert not any(s.draining for s in fe.placer.shards.values())
            # every incarnation was actually replaced
            assert all(s not in before for s in cluster.servers)
            # and the rolled cluster still admits
            client = await ServeClient.connect(unix_path=sock)
            await client.hello("after-roll")
            begun = await client.pp_begin(MB(1), timeout=5.0)
            assert begun["admitted"] is True
            await client.pp_end(begun["pp_id"], timeout=5.0)
            await client.close()
            assert await drain(cluster) == 0

        asyncio.run(scenario())

    def test_drain_verb_targets_one_shard(self, tmp_path):
        """{"op": "drain", "shard": ...} drains and (with a restarter
        armed) restarts exactly that shard through the admin path."""
        async def scenario():
            cluster, sock = await start_cluster(
                tmp_path, n=2, supervise=True, journal=True, **self.OVERRIDES
            )
            fe = cluster.frontend
            probe = await ServeClient.connect(unix_path=sock)
            reply = await probe.call_raw(
                "drain", shard="shard1", grace_s=1.0, timeout=20.0
            )
            assert reply["ok"] is True
            assert reply["shard"] == "shard1"
            assert reply["drained"] is True
            assert reply["restarted"] is True
            assert fe.c_shard_restarts.value == 1
            assert len(fe.placer.alive_shards()) == 2

            bad = await probe.call_raw("drain", shard="nope", timeout=5.0)
            assert bad["ok"] is False
            assert bad["error"]["code"] == ErrorCode.BAD_REQUEST
            await probe.close()
            assert await drain(cluster) == 0

        asyncio.run(scenario())

    def test_drain_verb_rejects_malformed_fields(self, tmp_path):
        async def scenario():
            cluster, sock = await start_cluster(
                tmp_path, n=2, supervise=True, journal=True, **self.OVERRIDES
            )
            fe = cluster.frontend
            probe = await ServeClient.connect(unix_path=sock)
            for fields in (
                {"shard": 1},
                {"rolling": "false"},
                {"grace_s": True},
                {"grace_s": -3},
                {"grace_s": "5"},
            ):
                reply = await probe.call_raw("drain", timeout=20.0, **fields)
                assert reply["ok"] is False, fields
                assert reply["error"]["code"] == ErrorCode.BAD_REQUEST
            assert fe.c_shard_drains.value == 0
            assert fe.c_shard_restarts.value == 0
            assert len(fe.placer.placeable_shards()) == 2
            assert all(not s.draining for s in cluster.servers)
            # the cluster still places and admits
            client = await ServeClient.connect(unix_path=sock)
            await client.hello("after-bad-drains")
            begun = await client.pp_begin(MB(1), timeout=5.0)
            assert begun["admitted"] is True
            await client.pp_end(begun["pp_id"], timeout=5.0)
            await client.close()
            await probe.close()
            assert await drain(cluster) == 0

        asyncio.run(scenario())

    def test_drain_shard_moves_a_parked_resilient_client(self, tmp_path):
        async def scenario():
            # the balance loop stays off: only drain_shard may move it
            cluster, sock = await start_cluster(
                tmp_path, n=2, supervise=True, journal=True,
                migration=False, **self.OVERRIDES
            )
            fe = cluster.frontend
            filler = await ServeClient.connect(unix_path=sock)
            await filler.hello("filler")
            held = await filler.pp_begin(MB(3), timeout=5.0)
            home = fe.placer.assignments["filler"]
            await asyncio.sleep(0.2)  # the health loop sees the usage
            parker = ResilientServeClient(
                unix_path=sock, client_id="parker",
                backoff_base_s=0.01, max_attempts=10,
            )
            begin = asyncio.ensure_future(parker.pp_begin(MB(2.5)))
            assert await _wait_for(lambda: fe.placer.shards[home].waiting)
            assert fe.placer.assignments["parker"] == home
            drained = asyncio.ensure_future(
                fe.drain_shard(home, grace_s=5.0)
            )
            reply = await asyncio.wait_for(begin, 10.0)
            assert reply["admitted"] is True
            assert fe.placer.assignments["parker"] != home
            assert fe.c_migrations.value == 1
            assert parker.redirects == 2
            await filler.pp_end(held["pp_id"], timeout=5.0)
            assert await asyncio.wait_for(drained, 10.0) is True
            assert await fe.restart_shard(home) is True
            await parker.pp_end(reply["pp_id"])
            await parker.close()
            await filler.close()
            assert await drain(cluster) == 0

        asyncio.run(scenario())

    def test_rolling_verb_cycles_the_cluster(self, tmp_path):
        async def scenario():
            cluster, sock = await start_cluster(
                tmp_path, n=2, supervise=True, journal=True, **self.OVERRIDES
            )
            fe = cluster.frontend
            probe = await ServeClient.connect(unix_path=sock)
            reply = await probe.call_raw(
                "drain", rolling=True, grace_s=1.0, timeout=30.0
            )
            assert reply["ok"] is True
            assert reply["rolling"] is True
            assert reply["shards"] == {"shard0": True, "shard1": True}
            assert reply["rolled"] == 2
            assert fe.c_shard_restarts.value == 2
            await probe.close()
            assert await drain(cluster) == 0

        asyncio.run(scenario())


class TestMigration:
    def test_parked_resilient_client_moves_by_redirect(self, tmp_path):
        async def scenario():
            cluster, sock = await start_cluster(tmp_path, n=2)
            fe = cluster.frontend
            fillers = []
            for i in range(2):
                c = await ServeClient.connect(unix_path=sock)
                await c.hello(f"filler-{i}")
                begun = await c.pp_begin(MB(3), timeout=5.0)
                fillers.append((c, begun["pp_id"]))
                await asyncio.sleep(0.2)

            parker = ResilientServeClient(
                unix_path=sock, client_id="parker",
                backoff_base_s=0.01, max_attempts=10,
            )
            begin = asyncio.ensure_future(parker.pp_begin(MB(2.5)))
            await asyncio.sleep(0.4)
            assert not begin.done()
            home = fe.placer.assignments["parker"]
            other = next(
                i for i in range(2)
                if fe.placer.assignments[f"filler-{i}"] != home
            )
            c, pp_id = fillers[other]
            await c.pp_end(pp_id, timeout=5.0)

            reply = await asyncio.wait_for(begin, 15.0)
            assert reply["admitted"] is True
            assert fe.c_migrations.value >= 1
            assert fe.placer.assignments["parker"] != home
            # one REDIRECT from the front-end, one from the moving shard
            assert parker.redirects == 2
            await parker.pp_end(reply["pp_id"])
            keep = fillers[1 - other]
            await keep[0].pp_end(keep[1], timeout=5.0)
            for c, _ in fillers:
                await c.close()
            await parker.close()
            assert await drain(cluster) == 0

        asyncio.run(scenario())

    def test_parked_begin_moves_to_the_shard_with_headroom(self, tmp_path):
        async def scenario():
            cluster, sock = await start_cluster(tmp_path, n=2)
            fe = cluster.frontend
            fillers = []
            # two 3 MB fillers, staggered so the health loop observes the
            # first before the second is placed (they land on both shards)
            for i in range(2):
                c = await ServeClient.connect(unix_path=sock)
                await c.hello(f"filler-{i}")
                begun = await c.pp_begin(MB(3), timeout=5.0)
                assert begun["admitted"] is True
                fillers.append((c, begun["pp_id"]))
                await asyncio.sleep(0.2)

            parker = await ServeClient.connect(unix_path=sock)
            await parker.hello("parker")
            begin = asyncio.ensure_future(
                parker.pp_begin(MB(2.5), timeout=30.0)
            )
            await asyncio.sleep(0.4)
            assert not begin.done()
            home = fe.placer.assignments["parker"]

            # free the *other* shard: parker's home stays saturated, so the
            # balance loop must migrate the parked begin across
            other = next(
                i for i in range(2)
                if fe.placer.assignments[f"filler-{i}"] != home
            )
            c, pp_id = fillers[other]
            await c.pp_end(pp_id, timeout=5.0)

            reply = await asyncio.wait_for(begin, 15.0)
            assert reply["admitted"] is True
            assert fe.c_migrations.value >= 1
            assert fe.placer.assignments["parker"] != home
            await parker.pp_end(reply["pp_id"], timeout=5.0)

            keep = fillers[1 - other]
            await keep[0].pp_end(keep[1], timeout=5.0)
            for c, _ in fillers:
                await c.close()
            await parker.close()
            assert await drain(cluster) == 0

        asyncio.run(scenario())
