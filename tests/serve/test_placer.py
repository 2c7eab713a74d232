"""DemandAwarePlacer: scoring, stickiness, determinism, migration."""

import random

import pytest

from repro.serve.placer import (
    ClusterError,
    DemandAwarePlacer,
    ShardAddress,
    ShardState,
)

MB = 1024 * 1024


def shard(name, capacity_mb=8, usage_mb=0):
    state = ShardState(address=ShardAddress(name=name, unix_path=f"/tmp/{name}.sock"))
    state.capacity = {"llc": capacity_mb * MB}
    state.usage = {"llc": usage_mb * MB}
    return state


def make_placer(*shards, seed=0):
    return DemandAwarePlacer(list(shards), seed=seed)


class TestScoring:
    def test_best_fit_picks_the_tightest_feasible_shard(self):
        # 2 MB free vs 6 MB free: a 1 MB demand fits both; best-fit
        # concentrates it on the fuller shard to preserve the big hole
        placer = make_placer(shard("a", usage_mb=6), shard("b", usage_mb=2))
        chosen = placer.place("c1", {"llc": 1 * MB})
        assert chosen.name == "a"

    def test_infeasible_demand_parks_on_least_loaded_shard(self):
        placer = make_placer(shard("a", usage_mb=7), shard("b", usage_mb=5))
        chosen = placer.place("c1", {"llc": 6 * MB})
        assert chosen.name == "b"

    def test_unprobed_shard_ranks_last(self):
        unknown = ShardState(
            address=ShardAddress(name="u", unix_path="/tmp/u.sock")
        )
        placer = make_placer(shard("a", usage_mb=7), unknown)
        assert placer.place("c1", {"llc": 1 * MB}).name == "a"

    def test_no_live_shard_raises(self):
        placer = make_placer(shard("a"))
        placer.mark_dead("a")
        with pytest.raises(ClusterError):
            placer.place("c1", {"llc": MB})

    def test_reservations_count_against_capacity(self):
        placer = make_placer(shard("a"), shard("b"))
        placer.place("hog", {"llc": 7 * MB})
        # the hog's demand is assigned (not yet observed), so the next
        # feasible placement must land on the other shard
        assert placer.place("c2", {"llc": 2 * MB}).name != placer.assignments["hog"]


class TestStickiness:
    def test_known_client_keeps_its_shard(self):
        placer = make_placer(shard("a"), shard("b"))
        first = placer.place("c1", {"llc": MB})
        again = placer.place("c1", {"llc": 2 * MB})
        assert again.name == first.name
        assert placer.placements_total == 1

    def test_dead_shard_client_is_replaced(self):
        placer = make_placer(shard("a"), shard("b"))
        home = placer.place("c1", {"llc": MB})
        placer.mark_dead(home.name)
        moved = placer.place("c1", {"llc": MB})
        assert moved.name != home.name
        assert placer.replacements_total == 1

    def test_release_clears_reservation_but_keeps_assignment(self):
        placer = make_placer(shard("a"), shard("b"))
        home = placer.place("c1", {"llc": 5 * MB})
        placer.release("c1")
        assert placer.assignments["c1"] == home.name
        assert home.assigned.get("llc", 0) == 0

    def test_forget_drops_assignment_and_reservation(self):
        placer = make_placer(shard("a"), shard("b"))
        home = placer.place("c1", {"llc": 5 * MB})
        placer.forget("c1")
        assert "c1" not in placer.assignments
        assert home.assigned.get("llc", 0) == 0


class TestLifecycle:
    def test_revive_is_the_inverse_of_mark_dead(self):
        placer = make_placer(shard("a"), shard("b"))
        placer.mark_dead("a")
        assert not placer.shards["a"].alive
        placer.revive("a")
        state = placer.shards["a"]
        assert state.alive and not state.draining
        assert placer.revivals_total == 1
        assert {s.name for s in placer.alive_shards()} == {"a", "b"}

    def test_revive_clears_draining(self):
        placer = make_placer(shard("a"))
        placer.mark_draining("a")
        placer.mark_dead("a")
        placer.revive("a")
        state = placer.shards["a"]
        assert state.alive and not state.draining and state.placeable

    def test_draining_shard_is_skipped_by_placement(self):
        placer = make_placer(shard("a", usage_mb=6), shard("b"))
        # best-fit would pick "a"; draining takes it out of rotation
        placer.mark_draining("a")
        assert placer.place("c1", {"llc": MB}).name == "b"

    def test_draining_breaks_stickiness(self):
        placer = make_placer(shard("a"), shard("b"))
        home = placer.place("c1", {"llc": MB})
        placer.mark_draining(home.name)
        moved = placer.place("c1", {"llc": MB})
        assert moved.name != home.name

    def test_draining_shard_is_not_a_migration_target(self):
        a, b = shard("a", usage_mb=7), shard("b")
        placer = make_placer(a, b)
        placer.assignments["c1"] = "a"
        placer.mark_draining("b")
        assert placer.migration_target("c1", {"llc": 3 * MB}) is None

    def test_draining_home_forces_a_migration_target(self):
        # home still has headroom, but it is draining: the client must
        # be offered somewhere else to go
        a, b = shard("a"), shard("b")
        placer = make_placer(a, b)
        placer.place("c1", {"llc": MB})
        home = placer.assignments["c1"]
        placer.mark_draining(home)
        target = placer.migration_target("c1", {"llc": MB})
        assert target is not None and target.name != home

    def test_release_purges_assignment_to_a_dead_shard(self):
        # ghost capacity: a sticky assignment to a dead shard must not
        # survive the client's last period ending
        placer = make_placer(shard("a"), shard("b"))
        home = placer.place("c1", {"llc": 5 * MB})
        placer.mark_dead(home.name)
        placer.release("c1")
        assert "c1" not in placer.assignments
        assert home.assigned.get("llc", 0) == 0

    def test_snapshot_reports_lifecycle_state(self):
        placer = make_placer(shard("a"), shard("b"))
        placer.mark_draining("a")
        placer.mark_dead("b")
        placer.revive("b")
        snap = placer.snapshot()
        assert snap["revivals_total"] == 1
        assert snap["shards"]["a"]["draining"] is True
        assert snap["shards"]["b"]["draining"] is False


class TestDeterminismProperty:
    """Placement is a pure function of (seed, demands, capacities)."""

    def _scenario(self, rng):
        n_shards = rng.randint(1, 6)
        capacities = [rng.randint(2, 16) for _ in range(n_shards)]
        demands = [
            {"llc": rng.randint(0, 8) * MB} for _ in range(rng.randint(1, 40))
        ]
        return capacities, demands

    def _run(self, seed, capacities, demands):
        shards = [
            shard(f"s{i}", capacity_mb=cap) for i, cap in enumerate(capacities)
        ]
        placer = DemandAwarePlacer(shards, seed=seed)
        return [
            placer.place(f"client-{i}", demand).name
            for i, demand in enumerate(demands)
        ]

    def test_identical_inputs_give_identical_sequences(self):
        rng = random.Random(0xD5)
        for trial in range(50):
            seed = rng.randint(0, 2**31)
            capacities, demands = self._scenario(rng)
            first = self._run(seed, capacities, demands)
            second = self._run(seed, capacities, demands)
            assert first == second, f"trial {trial} diverged"

    def test_tiebreak_depends_on_seed(self):
        # four identical idle shards: every placement is an exact tie, so
        # the seeded permutation is the only thing deciding — different
        # seeds must be able to produce different winners
        capacities = [8, 8, 8, 8]
        demands = [{"llc": MB}]
        winners = {
            self._run(seed, capacities, demands)[0] for seed in range(32)
        }
        assert len(winners) > 1


class TestMigration:
    def test_no_target_while_home_has_observed_headroom(self):
        placer = make_placer(shard("a"), shard("b"))
        placer.place("c1", {"llc": 3 * MB})
        assert placer.migration_target("c1", {"llc": 3 * MB}) is None

    def test_target_ignores_own_reservation_on_home(self):
        # home is genuinely full on *observed* usage, the other shard is
        # free; the client's own reservation on home must not matter
        a, b = shard("a", usage_mb=7), shard("b")
        placer = make_placer(a, b)
        placer.assignments["c1"] = "a"
        placer._note_demand(a, "c1", {"llc": 3 * MB})
        target = placer.migration_target("c1", {"llc": 3 * MB})
        assert target is not None and target.name == "b"

    def test_no_target_when_everywhere_is_full(self):
        placer = make_placer(shard("a", usage_mb=7), shard("b", usage_mb=7))
        placer.assignments["c1"] = "a"
        assert placer.migration_target("c1", {"llc": 3 * MB}) is None

    def test_migrate_carries_the_demand_profile(self):
        a, b = shard("a", usage_mb=7), shard("b")
        placer = make_placer(a, b)
        placer.place("c1", {"llc": 3 * MB})
        placer.migrate("c1", b)
        assert placer.assignments["c1"] == "b"
        assert a.assigned.get("llc", 0) == 0
        assert b.assigned.get("llc", 0) == 3 * MB


class TestGauges:
    def test_fragmentation_zero_when_one_hole(self):
        placer = make_placer(shard("a", usage_mb=8), shard("b"))
        assert placer.fragmentation() == 0.0

    def test_fragmentation_rises_as_free_capacity_shatters(self):
        placer = make_placer(
            shard("a", usage_mb=4), shard("b", usage_mb=4),
            shard("c", usage_mb=4), shard("d", usage_mb=4),
        )
        assert placer.fragmentation() == pytest.approx(0.75)

    def test_snapshot_shape(self):
        placer = make_placer(shard("a"), seed=7)
        placer.place("c1", {"llc": MB})
        snap = placer.snapshot()
        assert snap["seed"] == 7
        assert snap["placements_total"] == 1
        assert snap["shards"]["a"]["clients"] == 1
