"""The cluster front-end's decisions, on a fake clock.

:class:`~repro.serve.cluster.ClusterFrontend` reads every time from one
injected clock, and its one loop is the health sweep: probe and fold each
shard, then restart the dead shards and move the parked begins that may
move.  Here :class:`FakeShards` stands in for the shards: it answers the
front-end's ``_shard_call`` from a model the test sets, so reservations,
brownout, migration and supervision are driven by plain sweeps on a clock
the test moves.  No socket opens, and nothing sleeps but a drain's one
50 ms pause between its probes.
"""

import asyncio

from repro.core.api import MB
from repro.serve import protocol
from repro.serve.cluster import ClusterFrontend
from repro.serve.config import ClusterConfig
from repro.serve.placer import ShardAddress
from repro.serve.protocol import ErrorCode

CAPACITY = MB(4)
TTL_S = 8.0


class Clock:
    """A clock the test moves by hand."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class FakeShards:
    """The shards behind the front-end, as its ``_shard_call`` sees them.

    A live shard answers ``query`` from its model (usage, parked begins
    with the time each parked), ``migrate`` by dropping the begin and
    ``drain`` at once; a dead one does not answer, and a shard in
    ``migrate_fails`` fails its ``migrate`` calls.  A ``migrate`` of a
    client in ``held`` waits for that event.  Every call is recorded.
    """

    def __init__(self, clock, names):
        self.clock = clock
        self.usage = dict.fromkeys(names, 0)
        #: shard -> [(client, demand, parked at)]
        self.parked = {name: [] for name in names}
        self.peak = 0
        self.dead = set()
        self.migrate_fails = set()
        #: client -> asyncio.Event its ``migrate`` call waits for
        self.held = {}
        self.calls = []

    async def call(self, state, op, timeout=None, unreachable=None, **fields):
        name = state.name
        self.calls.append((name, op, fields))
        if name in self.dead:
            return unreachable
        if op == "migrate":
            if fields["client"] in self.held:
                await self.held[fields["client"]].wait()
            if name in self.migrate_fails:
                return None
            self.parked[name] = [
                entry for entry in self.parked[name]
                if entry[0] != fields["client"]
            ]
            return {"moved": 1}
        if op == "drain":
            return {}
        assert op == "query"
        return {
            "open_periods": len(self.parked[name]),
            "waiting": len(self.parked[name]),
            "lease_ttl_s": TTL_S,
            "demand_peak_bytes": self.peak,
            "resources": {"llc": {
                "usage_bytes": self.usage[name], "capacity_bytes": CAPACITY,
            }},
            "parked": [
                {
                    "client": client, "resource": "llc",
                    "demand_bytes": demand, "parked_s": self.clock() - at,
                }
                for client, demand, at in self.parked[name]
            ],
        }

    def park(self, name, client, demand):
        self.parked[name].append((client, demand, self.clock()))

    def migrations(self):
        """(source, client, target) of each ``migrate`` call, in order."""
        return [
            (name, fields["client"], fields["shard"]["name"])
            for name, op, fields in self.calls if op == "migrate"
        ]

    def probed(self, name):
        return sum(1 for shard, op, _ in self.calls if (shard, op) == (name, "query"))


def make_frontend(clock, n=2, **overrides):
    cfg = ClusterConfig(
        shards=tuple(
            ShardAddress(name=f"s{i}", unix_path=f"/nonexistent/s{i}.sock")
            for i in range(n)
        ),
        **overrides,
    )
    frontend = ClusterFrontend(cfg, clock=clock)
    shards = FakeShards(clock, list(frontend.placer.shards))
    frontend._shard_call = shards.call
    return frontend, shards


def sweep(frontend):
    asyncio.run(frontend._health_sweep())


def hello(frontend, client, demand):
    request = protocol.parse_request({
        "v": protocol.PROTOCOL_VERSION, "id": 1, "op": "hello",
        "client": client, "demand_bytes": demand,
    })
    return asyncio.run(frontend._op_redirect(None, request))


def test_the_health_sweep_is_the_only_loop():
    frontend, _ = make_frontend(Clock())
    loops = frontend._background_loops()
    try:
        assert [loop.__name__ for loop in loops] == ["_health_loop"]
    finally:
        for loop in loops:
            loop.close()


class TestReservations:
    def test_a_hello_reservation_lasts_one_lease_ttl(self):
        clock = Clock()
        frontend, _ = make_frontend(clock)
        sweep(frontend)  # capacities and lease TTLs folded
        reply = hello(frontend, "alice", MB(2))
        assert reply["error"]["code"] == ErrorCode.REDIRECT
        home = frontend.placer.shard_of("alice")
        assert home.assigned == {"llc": MB(2)}
        clock.now += TTL_S - 0.5
        sweep(frontend)
        assert home.assigned == {"llc": MB(2)}
        clock.now += 0.5
        sweep(frontend)
        assert home.assigned == {}  # observed usage carries it from here
        assert frontend.placer.shard_of("alice") is home


class TestBrownout:
    def saturate(self, clock):
        """Both shards 3 of 4 MB full while a 2 MB demand was seen."""
        frontend, shards = make_frontend(
            clock, brownout_fragmentation=0.5, brownout_sweeps=3
        )
        shards.usage.update(s0=MB(3), s1=MB(3))
        shards.peak = MB(2)
        return frontend, shards

    def test_it_engages_on_the_nth_saturated_sweep_and_releases_with_room(
        self,
    ):
        frontend, shards = self.saturate(Clock())
        for _ in range(2):
            sweep(frontend)
            assert not frontend._shed_new_client("new")
        sweep(frontend)
        assert frontend._shed_new_client("new")
        reply = hello(frontend, "new", MB(1))
        assert reply["error"]["code"] == ErrorCode.OVERLOAD
        assert frontend.c_brownout_shed.value == 1
        shards.usage["s1"] = MB(1)
        sweep(frontend)
        assert not frontend._shed_new_client("new")

    def test_a_drain_neither_grows_nor_resets_the_streak(self):
        frontend, shards = self.saturate(Clock())
        sweep(frontend)
        sweep(frontend)
        frontend.placer.mark_draining("s1")
        sweep(frontend)  # saturated, but a shard drains: no third strike
        assert not frontend._shed_new_client("new")
        shards.usage["s0"] = 0
        sweep(frontend)  # room, but a shard drains: no reset either
        assert not frontend._shed_new_client("new")
        frontend.placer.mark_draining("s1", False)
        shards.usage["s0"] = MB(3)
        sweep(frontend)
        assert frontend._shed_new_client("new")


class TestMigration:
    def park_on_a_full_shard(self, clock, **overrides):
        """``p`` is placed, then parks its 2 MB on its 3 MB-full home."""
        frontend, shards = make_frontend(clock, **overrides)
        sweep(frontend)
        hello(frontend, "p", MB(2))
        home = frontend.placer.assignments["p"]
        other = next(name for name in shards.usage if name != home)
        shards.usage[home] = MB(3)
        shards.park(home, "p", MB(2))
        return frontend, shards, home, other

    def test_a_parked_begin_moves_once_the_clock_passes_the_age_gate(self):
        clock = Clock()
        frontend, shards, home, other = self.park_on_a_full_shard(
            clock, migrate_after_s=0.25
        )
        clock.now += 0.125
        sweep(frontend)
        assert shards.migrations() == []
        clock.now += 0.125
        sweep(frontend)
        assert shards.migrations() == [(home, "p", other)]
        assert frontend.placer.assignments["p"] == other
        assert frontend.c_migrations.value == 1
        assert frontend.c_rebalances.value == 0

    def test_fragmented_capacity_moves_a_begin_at_once(self):
        # free: 1 MB on the home shard, 4 MB on the other: 0.2 fragmented
        frontend, shards, home, other = self.park_on_a_full_shard(
            Clock(), migrate_after_s=60.0, rebalance_fragmentation=0.15
        )
        sweep(frontend)
        assert shards.migrations() == [(home, "p", other)]
        assert frontend.c_rebalances.value == 1

    def test_a_failed_migrate_ends_that_sources_moves_for_the_sweep(self):
        clock = Clock()
        frontend, shards = make_frontend(clock, n=3, migrate_after_s=0.0)
        shards.usage.update(s0=MB(3.5), s1=MB(3.5))
        for client, name in (("p", "s0"), ("q", "s0"), ("r", "s1")):
            shards.park(name, client, MB(1))
        shards.migrate_fails.add("s0")
        sweep(frontend)
        assert shards.migrations() == [("s0", "p", "s2"), ("s1", "r", "s2")]
        assert frontend.c_migration_failures.value == 1
        assert frontend.c_migrations.value == 1
        shards.migrate_fails.clear()
        sweep(frontend)  # the next probe lists both again
        assert shards.migrations()[2:] == [("s0", "p", "s2"), ("s0", "q", "s2")]

    def test_a_drain_and_a_sweep_on_one_parked_list_move_each_begin_once(self):
        """The sweep does not probe a draining shard, so it moves begins
        off the list the drain's own probe left.  While one pass awaits a
        ``migrate``, the other takes the next begin from the same list;
        each must skip what the other took, and neither may fail."""
        clock = Clock()
        frontend, shards = make_frontend(clock, migrate_after_s=0.0)
        sweep(frontend)  # capacities folded
        shards.usage["s0"] = MB(3.5)
        for client in "abc":
            shards.park("s0", client, MB(1))

        async def until(done):
            for _ in range(100):
                if done():
                    return
                await asyncio.sleep(0)
            raise AssertionError("the front-end never got there")

        async def a_sweep_during_a_drain():
            shards.held = {"a": asyncio.Event(), "b": asyncio.Event()}
            drain = asyncio.ensure_future(frontend.drain_shard("s0"))
            await until(lambda: len(shards.migrations()) == 1)  # a, by drain
            health = asyncio.ensure_future(frontend._health_sweep())
            await until(lambda: len(shards.migrations()) == 2)  # b, by sweep
            shards.held["a"].set()  # the drain goes on past b to c
            await until(lambda: len(shards.migrations()) == 3 or drain.done())
            shards.held["b"].set()  # the sweep goes on past c
            await asyncio.wait_for(health, 5.0)
            return await asyncio.wait_for(drain, 5.0)

        assert asyncio.run(a_sweep_during_a_drain()) is True
        assert shards.migrations() == [("s0", c, "s1") for c in "abc"]
        assert frontend.c_migrations.value == 3


class TestSupervision:
    def test_a_sweep_starts_one_restart_per_dead_shard(self):
        clock = Clock()
        frontend, shards = make_frontend(clock, n=4)
        started = []

        async def supervised_restart(shard):
            started.append(shard.name)  # still restarting: never finishes

        async def restarter():
            pass

        frontend._supervised_restart = supervised_restart
        for name in ("s0", "s2", "s3"):
            frontend.register_restarter(name, restarter)
        shards.dead.update({"s0", "s1", "s2", "s3"})
        frontend._quarantined.add("s2")
        frontend.placer.mark_draining("s3")  # a planned restart owns it

        async def two_sweeps():
            await frontend._health_sweep()
            await frontend._health_sweep()
            await asyncio.gather(*frontend._restart_tasks)

        asyncio.run(two_sweeps())
        assert started == ["s0"]
        assert shards.probed("s0") == 1  # mid-restart: the sweep skips it
        assert shards.probed("s3") == 0

    def test_the_crash_loop_verdict_doubles_the_backoff_to_the_cap(self):
        clock = Clock()
        frontend, _ = make_frontend(
            clock, restart_backoff_s=0.25, restart_backoff_cap_s=0.75,
            crash_loop_window_s=10.0, quarantine_after=4,
        )
        verdicts = []
        for _ in range(5):
            verdicts.append(frontend._restart_backoff("s0"))
            frontend._last_restart["s0"] = clock()  # restarted, then
            clock.now += 1.0  # dead again within the window
        assert verdicts == [0.25, 0.5, 0.75, 0.75, None]
        assert frontend.quarantined == {"s0"}

    def test_a_death_after_the_window_starts_the_streak_over(self):
        clock = Clock()
        frontend, _ = make_frontend(
            clock, restart_backoff_s=0.25, crash_loop_window_s=10.0,
        )
        assert frontend._restart_backoff("s0") == 0.25
        frontend._last_restart["s0"] = clock()
        clock.now += 1.0
        assert frontend._restart_backoff("s0") == 0.5
        frontend._last_restart["s0"] = clock()
        clock.now += 10.0
        assert frontend._restart_backoff("s0") == 0.25
        assert frontend.quarantined == set()
