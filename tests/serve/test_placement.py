"""Adaptive storage-region placement: overrides, migration, the loop.

The skewed-tenant scenario: one hot tenant publishes an order of
magnitude more than its neighbors, so its coarse storage region (all
``j`` facts of that tenant at one home node) turns the home and the
gather route into a hotspot.  The placer must detect it via the
per-epoch load-imbalance signal and migrate the region — and the
cumulative transmission imbalance must come out measurably below the
static-placement run of the *same* workload.
"""

import random

import pytest

from repro.core.errors import NetworkError
from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program
from repro.dist.gpa import GPAEngine, ResultMsg
from repro.net.ght import GeographicHash, GHTPartition
from repro.net.network import GridNetwork
from repro.serve import AdaptivePlacer, QueryServer, placement

PROG = "j(K, A, B) :- r(K, A), s(K, B)."


def skewed_loads(seed=7, hot=24, cold=4, tenants=4, n_nodes=36):
    rng = random.Random(seed)
    loads = {}
    for i in range(tenants):
        count = hot if i == 0 else cold
        pubs = []
        for k in range(count):
            pubs.append((rng.randrange(n_nodes), "r", (k % 3, f"a{k}")))
            pubs.append((rng.randrange(n_nodes), "s", (k % 3, f"b{k}")))
        loads[f"t{i}"] = pubs
    return loads


def run_skewed(placement, m=6, **kwargs):
    net = GridNetwork(m)
    server = QueryServer(net, placement=placement, **kwargs)
    loads = skewed_loads(n_nodes=m * m)
    for tenant, pubs in loads.items():
        server.admit(tenant, PROG, outputs=("j",))
        server.submit(tenant, pubs)
    server.run()
    return net, server, loads


class TestGHTOverrides:
    def test_place_pins_home(self):
        ght = GeographicHash(GridNetwork(4).topology)
        key = "tenant:j"
        default_home = ght.node_for_key(key)
        target = (default_home + 1) % 16
        ght.place(key, target)
        assert ght.node_for_key(key) == target
        assert ght.nodes_for_key(key)[0] == target
        assert ght.placement() == {key: target}

    def test_unplace_restores_hash_home(self):
        ght = GeographicHash(GridNetwork(4).topology)
        home = ght.node_for_key("k")
        ght.place("k", (home + 5) % 16)
        ght.unplace("k")
        assert ght.node_for_key("k") == home
        assert ght.placement() == {}

    def test_place_unknown_node_rejected(self):
        ght = GeographicHash(GridNetwork(4).topology)
        with pytest.raises(NetworkError):
            ght.place("k", 99)

    def test_override_keeps_replica_set_local_to_new_home(self):
        ght = GeographicHash(GridNetwork(4).topology, replicas=3)
        ght.place("k", 5)
        replica_set = ght.nodes_for_key("k")
        assert replica_set[0] == 5
        assert len(replica_set) == 3
        # Replicas are the nodes nearest the *pinned* home.
        assert set(replica_set[1:]) <= set(
            ght.topology.nearest_nodes(ght.topology.position(5), 5)
        )

    def test_other_keys_unaffected_by_override(self):
        ght = GeographicHash(GridNetwork(4).topology)
        before = {k: ght.node_for_key(k) for k in ("a", "b", "c")}
        ght.place("z", 3)
        assert {k: ght.node_for_key(k) for k in ("a", "b", "c")} == before


class TestGHTPartition:
    def test_partition_prefixes_tenant(self):
        ght = GeographicHash(GridNetwork(4).topology)
        part = ght.partition("alice")
        assert isinstance(part, GHTPartition)
        assert part.key_for_fact("j", (1,)) == "alice:j/(1,)"

    def test_coarse_partition_colocates_predicate(self):
        ght = GeographicHash(GridNetwork(4).topology)
        part = ght.partition("alice", coarse=True)
        assert part.key_for_fact("j", (1, 2)) == "alice:j"
        assert part.key_for_fact("j", (9, 9)) == "alice:j"
        assert part.node_for_fact("j", (1, 2)) == part.node_for_fact("j", (9, 9))
        assert part.region_key("j") == "alice:j"

    def test_partitions_of_different_tenants_diverge(self):
        ght = GeographicHash(GridNetwork(4).topology)
        a = ght.partition("a", coarse=True)
        b = ght.partition("b", coarse=True)
        assert a.key_for_fact("j", (1,)) != b.key_for_fact("j", (1,))

    def test_partition_delegates_overrides_to_base(self):
        ght = GeographicHash(GridNetwork(4).topology)
        part = ght.partition("a", coarse=True)
        part.place("a:j", 7)
        assert ght.node_for_key("a:j") == 7
        assert part.node_for_fact("j", (1, 2)) == 7
        part.unplace("a:j")
        assert ght.placement() == {}


class TestMigrateDerived:
    def engine_with_results(self):
        net = GridNetwork(4)
        engine = GPAEngine(
            parse_program(PROG), net, strategy="pa",
            tenant="a", ght=net.ght.partition("a", coarse=True),
        ).install()
        rng = random.Random(3)
        for k in range(5):
            engine.publish(rng.randrange(16), "r", (k % 2, f"a{k}"))
            engine.publish(rng.randrange(16), "s", (k % 2, f"b{k}"))
        net.run_all()
        return net, engine

    def test_migration_moves_state_and_preserves_rows(self):
        net, engine = self.engine_with_results()
        rows_before = engine.rows("j")
        assert rows_before
        key = engine.ght.region_key("j")
        old_home = engine.ght.node_for_key(key)
        new_home = (old_home + 3) % 16
        engine.ght.place(key, new_home)
        moved = engine.migrate_derived(old_home, new_home, {key})
        net.run_all()
        assert moved == len(rows_before)
        assert engine.rows("j") == rows_before
        old_rt = engine.runtimes[old_home]
        assert not any(p == "j" for p, _ in old_rt.derived)
        new_rt = engine.runtimes[new_home]
        assert {a for p, a in new_rt.derived if p == "j"}

    def test_migration_is_message_costed(self):
        net, engine = self.engine_with_results()
        key = engine.ght.region_key("j")
        old_home = engine.ght.node_for_key(key)
        new_home = 15 if old_home != 15 else 0
        before = net.metrics.total_messages
        engine.ght.place(key, new_home)
        engine.migrate_derived(old_home, new_home, {key})
        net.run_all()
        assert net.metrics.total_messages > before
        assert net.metrics.category_tx["placement"] > 0

    def test_tombstones_travel_with_a_migrated_fact(self):
        """A derivation cancelled at the old home stays cancelled at the
        new one: a late copy of its add is still outranked there."""
        net, engine = self.engine_with_results()
        tid = engine.publish(5, "r", (0, "gone"))
        net.run_all()
        key = engine.ght.region_key("j")
        old_home = engine.ght.node_for_key(key)
        new_home = (old_home + 3) % 16
        late = [
            ResultMsg(pred, args, derivation, "add", tid.timestamp)
            for (pred, args), fact in engine.runtimes[old_home].derived.items()
            for derivation in fact.derivations.values() if "gone" in repr(args)
        ]
        assert late
        engine.retract(5, "r", (0, "gone"), tid)
        net.run_all()
        rows = engine.rows("j")
        engine.ght.place(key, new_home)
        engine.migrate_derived(old_home, new_home, {key})
        net.run_all()
        for msg in late:
            engine._on_result(net.node(new_home), msg)
        assert engine.rows("j") == rows

    def test_new_results_land_at_migrated_home(self):
        net, engine = self.engine_with_results()
        key = engine.ght.region_key("j")
        old_home = engine.ght.node_for_key(key)
        new_home = (old_home + 7) % 16
        engine.ght.place(key, new_home)
        engine.migrate_derived(old_home, new_home, {key})
        net.run_all()
        n_before = len(engine.runtimes[new_home].derived)
        engine.publish(2, "r", (0, "fresh"))
        engine.publish(9, "s", (0, "fresh2"))
        net.run_all()
        assert len(engine.runtimes[new_home].derived) > n_before
        assert not engine.runtimes[old_home].derived


class TestAdaptivePlacer:
    def test_hysteresis_between_watermarks(self, monkeypatch):
        # Nine nodes: max/mean of 3.5 engages, 1.4 (between the
        # watermarks) keeps the state it finds, 1.0 disengages.
        placer = AdaptivePlacer(GridNetwork(3))
        hot, warm, even = [5] + [1] * 8, [3] + [2] * 8, [1] * 9
        engaged = []
        for loads in (warm, hot, warm, even, warm):
            monkeypatch.setattr(placer, "epoch_loads",
                                lambda loads=loads: dict(enumerate(loads)))
            placer.step(0, [])
            engaged.append(placer._engaged)
        assert engaged == [False, True, True, False, False]
        assert placement._LO < placer.imbalance_history[0] < placement._HI

    def test_idle_network_is_balanced(self):
        placer = AdaptivePlacer(GridNetwork(3))
        assert placer.imbalance(placer.epoch_loads()) == 1.0

    def test_skew_triggers_migrations(self):
        net, server, _ = run_skewed(placement=True)
        assert server.placer.moves
        # Every move is recorded with pin + shipped facts.
        for move in server.placer.moves:
            assert move.facts >= 0
            assert move.old_home != move.new_home
        assert net.ght.placement()  # overrides installed

    def test_static_placement_never_migrates(self):
        net, server, _ = run_skewed(placement=False)
        assert server.placer is None
        assert net.ght.placement() == {}
        assert "migrations" not in server.report()

    def test_adaptive_beats_static_on_cumulative_imbalance(self):
        net_static, _, _ = run_skewed(placement=False)
        net_adaptive, _, _ = run_skewed(placement=True)
        static = net_static.metrics.load_imbalance(n_nodes=len(net_static))
        adaptive = net_adaptive.metrics.load_imbalance(
            n_nodes=len(net_adaptive)
        )
        assert adaptive < static * 0.85

    def test_results_exact_across_migrations(self):
        net, server, loads = run_skewed(placement=True)
        for tenant, pubs in loads.items():
            db = Database()
            for _, p, a in pubs:
                db.assert_fact(p, a)
            evaluate(parse_program(PROG), db)
            assert server.results(tenant, "j") == db.rows("j"), tenant

    def test_moves_deterministic_given_seed(self):
        def moves():
            _, server, _ = run_skewed(placement=True)
            return [
                (m.epoch, m.tenant, m.key, m.old_home, m.new_home, m.facts)
                for m in server.placer.moves
            ]
        assert moves() == moves()

    def test_cooldown_blocks_immediate_rebound(self):
        _, server, _ = run_skewed(placement=True)
        moves = server.placer.moves
        by_key = {}
        for move in moves:
            by_key.setdefault(move.key, []).append(move.epoch)
        for key, epochs in by_key.items():
            for earlier, later in zip(epochs, epochs[1:]):
                assert later - earlier >= placement._COOLDOWN
