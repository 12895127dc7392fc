"""GHT failover, anti-entropy re-sync, and self-repairing routing —
the recovery half of the E20 fault-injection subsystem."""

import pytest

from repro.core.parser import parse_program
from repro.dist.gpa import GPAEngine
from repro.dist.regions import make_strategy
from repro.net.faults import FaultInjector, FaultSchedule
from repro.net.messages import Message
from repro.net.network import GridNetwork

PROGRAM = "j(K, A, B) :- r(K, A), s(K, B)."


def _publish_pair(engine, net):
    engine.publish(net.grid.node_at(1, 2), "r", (1, "a"))
    engine.publish(net.grid.node_at(4, 5), "s", (1, "b"))
    net.run_all()


def _result_replica_set(ght_replicas=1):
    """Discover (deterministically) where the workload's derived fact
    homes: run it once on a healthy network and read the stored fact's
    replica set back through the GHT (head args are Terms, so hashing
    the raw Python values would compute a different key)."""
    net = GridNetwork(6, seed=13, ght_replicas=ght_replicas)
    engine = GPAEngine(
        parse_program(PROGRAM), net, strategy="pa",
        fault_tolerant=ght_replicas > 1,
    ).install()
    _publish_pair(engine, net)
    for runtime in engine.runtimes.values():
        for (pred, args), fact in runtime.derived.items():
            if pred == "j" and fact.visible:
                return net.ght.nodes_for_fact(pred, args)
    raise AssertionError("healthy run derived nothing")


class TestGhtReplicaSets:
    def test_single_home_pinned_behavior(self):
        """Pin the pre-E20 behavior: with replicas=1 (the default) a
        killed home node silently swallows results — node_for_key keeps
        resolving to the corpse and no failover happens."""
        (home,) = _result_replica_set(ght_replicas=1)
        net = GridNetwork(6, seed=13)
        engine = GPAEngine(parse_program(PROGRAM), net, strategy="pa").install()
        net.radio.kill(home)
        _publish_pair(engine, net)
        assert engine.rows("j") == set()

    def test_replica_set_shape(self):
        net = GridNetwork(6, ght_replicas=3)
        rs = net.ght.nodes_for_fact("j", (1, "a", "b"))
        assert len(rs) == 3 and len(set(rs)) == 3
        assert rs[0] == net.ght.node_for_fact("j", (1, "a", "b"))

    def test_replicas_validated(self):
        from repro.core.errors import NetworkError
        with pytest.raises(NetworkError):
            GridNetwork(3, ght_replicas=0)
        with pytest.raises(NetworkError):
            GridNetwork(2, 1, ght_replicas=3)

    def test_primary_fails_over_to_next_live_member(self):
        net = GridNetwork(6, ght_replicas=3)
        key = net.ght.key_for_fact("j", (1, "a", "b"))
        rs = net.ght.nodes_for_key(key)
        assert net.ght.primary_for_key(key, net.radio) == rs[0]
        net.radio.kill(rs[0])
        assert net.ght.primary_for_key(key, net.radio) == rs[1]
        net.radio.kill(rs[1])
        assert net.ght.primary_for_key(key, net.radio) == rs[2]
        net.radio.kill(rs[2])
        assert net.ght.primary_for_key(key, net.radio) is None
        net.radio.revive(rs[1])
        assert net.ght.primary_for_key(key, net.radio) == rs[1]

    def test_dead_home_fails_over_end_to_end(self):
        """With k=3 replicas + fault_tolerant, killing the home node
        before the result arrives no longer loses it: the result fans
        out to the live members and stays queryable."""
        home = _result_replica_set(ght_replicas=3)[0]
        net = GridNetwork(6, seed=13, ght_replicas=3)
        engine = GPAEngine(
            parse_program(PROGRAM), net, strategy="pa", fault_tolerant=True
        ).install()
        net.radio.kill(home)
        _publish_pair(engine, net)
        assert engine.rows("j", live_only=True) == {(1, "a", "b")}
        assert engine.ght_failovers > 0


class TestAntiEntropy:
    def test_recovered_member_resyncs_derived_facts(self):
        """A replica-set member that was dead when the result landed
        pulls it back via anti-entropy after it recovers."""
        rs = _result_replica_set(ght_replicas=3)
        net = GridNetwork(6, seed=13, ght_replicas=3)
        engine = GPAEngine(
            parse_program(PROGRAM), net, strategy="pa", fault_tolerant=True
        ).install()
        schedule = FaultSchedule().crash(0.0, rs[0]).recover(60.0, rs[0])
        injector = FaultInjector(net, schedule).arm()
        engine.attach_faults(injector)
        _publish_pair(engine, net)
        assert engine.resyncs > 0
        # The once-dead home now holds the derived fact locally.
        stored = [
            fact for (pred, _args), fact
            in engine.runtimes[rs[0]].derived.items() if pred == "j"
        ]
        assert stored and stored[0].visible

    def test_recovered_storage_member_resyncs_window(self):
        """A storage-region member that was dead during replication
        receives the missed window tuples from a live row-mate on
        recovery (base-tuple anti-entropy)."""
        net = GridNetwork(6, seed=13, ght_replicas=3)
        engine = GPAEngine(
            parse_program(PROGRAM), net, strategy="pa", fault_tolerant=True
        ).install()
        origin = net.grid.node_at(1, 2)
        victim = net.grid.node_at(4, 2)  # same storage row as origin
        schedule = FaultSchedule().crash(0.0, victim).recover(30.0, victim)
        injector = FaultInjector(net, schedule).arm()
        engine.attach_faults(injector)
        engine.publish(origin, "r", (1, "a"))
        net.run_all()
        window = engine.runtimes[victim].windows.get("r")
        assert window is not None and len(window) == 1

    def test_soft_state_refresh_after_heal(self):
        """A partition that cut a storage region off heals: the origin
        re-advertises its tuples and the cut-off members catch up."""
        net = GridNetwork(4, seed=5, ght_replicas=3)
        engine = GPAEngine(
            parse_program(PROGRAM), net, strategy="pa", fault_tolerant=True
        ).install()
        origin = net.grid.node_at(0, 1)
        far = net.grid.node_at(3, 1)  # same row, other side of the cut
        cut = [net.grid.node_at(x, y) for x in (2, 3) for y in range(4)]
        schedule = FaultSchedule().partition(0.0, cut).heal(30.0)
        injector = FaultInjector(net, schedule).arm()
        engine.attach_faults(injector)
        engine.publish(origin, "r", (1, "a"))
        net.run_until(20.0)
        assert engine.runtimes[far].windows.get("r") is None or (
            len(engine.runtimes[far].windows["r"]) == 0
        )
        net.run_all()
        assert len(engine.runtimes[far].windows["r"]) == 1


class TestSelfRepairingRouting:
    def test_forward_routes_around_dead_next_hop(self):
        """A routed message whose static next hop is dead triggers
        delivery-failure repair: the router excludes the corpse and the
        envelope re-forwards over the live subgraph."""
        net = GridNetwork(3, 3, reliable=True, self_repair=True)
        got = []
        net.node(8).register_handler("ping", lambda n, m: got.append(1))
        net.radio.kill(net.router.next_hop(0, 8))
        net.router.exclude(net.router.next_hop(0, 8))
        net.node(0).send_routed(8, Message("ping"))
        net.run_all()
        assert got == [1]

    def test_delivery_failure_detector_excludes_and_repairs(self):
        """Without pre-warning the router (no injector): the first
        gave_up('dead') report excludes the hop and re-forwards."""
        net = GridNetwork(3, 3, reliable=True, self_repair=True)
        got = []
        net.node(8).register_handler("ping", lambda n, m: got.append(1))
        hop = net.router.next_hop(0, 8)
        net.radio.kill(hop)  # router still believes the hop is fine
        net.node(0).send_routed(8, Message("ping"))
        net.run_all()
        assert got == [1]
        assert net.router.repairs > 0
        assert net.router.degraded

    def test_no_live_route_reports_no_route(self):
        net = GridNetwork(3, 1, reliable=True, self_repair=True)
        for mid in (1,):
            net.radio.kill(mid)
            net.router.exclude(mid)
        outcomes = []
        net.node(0).send_routed(
            2, Message("ping"),
            on_status=lambda s, r="": outcomes.append((s, r)),
        )
        net.run_all()
        assert outcomes == [("gave_up", "no_route")]

    def test_restore_heals_the_routing_view(self):
        net = GridNetwork(3, 3)
        net.router.exclude(4)
        assert 4 not in net.router.path(0, 8)
        net.router.restore(4)
        assert not net.router.degraded
        assert net.router.path(0, 8) == net.router.path(0, 8)

    def test_geo_routing_follows_the_liveness_view(self):
        """routing="geo" under a repairing injector: greedy forwarding
        until the view degrades, the live table after — and ``path``
        names the hops ``_forward`` really takes in both states."""
        net = GridNetwork(5, routing="geo")
        FaultInjector(net, FaultSchedule().crash(1.0, 1)).arm()
        got = []
        net.node(4).register_handler("ping", lambda n, m: got.append(1))
        assert net.router.path(0, 4) == [0, 1, 2, 3, 4]
        net.node(0).send_routed(4, Message("ping"))
        net.run_until(0.9)
        assert got == [1] and net.metrics.rx_count[1] == 1
        net.run_until(1.1)  # node 1 is dead and out of the view
        path = net.router.path(0, 4)
        assert 1 not in path
        net.node(0).send_routed(4, Message("ping"))
        net.run_all()
        assert got == [1, 1] and net.router.repairs == 0
        assert net.metrics.rx_count[1] == 1
        assert net.metrics.total_messages == 4 + len(path) - 1

    def test_excluded_edges_route_around(self):
        net = GridNetwork(3, 3)
        hop = net.router.next_hop(0, 8)
        net.router.exclude_edge(0, hop)
        assert net.router.next_hop(0, 8) != hop
        net.router.restore_edge(0, hop)
        assert not net.router.degraded


class TestJoinAlternates:
    def test_pa_alternates_are_row_mates_nearest_first(self):
        net = GridNetwork(4)
        strategy = make_strategy("pa", net)
        member = net.grid.node_at(1, 2)
        alts = strategy.join_alternates(member)
        assert list(alts) == [
            net.grid.node_at(0, 2), net.grid.node_at(2, 2),
            net.grid.node_at(3, 2),
        ]

    def test_virtual_grid_alternates_are_row_mates(self):
        net = GridNetwork(4)
        strategy = make_strategy("virtual-grid", net)
        member = strategy.rows[1][2]
        alts = strategy.join_alternates(member)
        assert set(alts) == set(strategy.rows[1]) - {member}

    def test_centralized_has_no_alternates(self):
        net = GridNetwork(4)
        strategy = make_strategy("centralized", net)
        assert list(strategy.join_alternates(strategy.server)) == []

    def test_dead_join_member_substituted_by_row_mate(self):
        """Kill a join-column member holding needed replicas: the token
        detours to a live row-mate and the join still completes."""
        net = GridNetwork(6, seed=13, ght_replicas=3, reliable=True)
        engine = GPAEngine(
            parse_program(PROGRAM), net, strategy="pa", fault_tolerant=True
        ).install()
        r_origin = net.grid.node_at(1, 2)
        s_origin = net.grid.node_at(4, 5)
        engine.publish(r_origin, "r", (1, "a"))
        net.run_all()
        # Kill the join-column member on r's storage row: the only
        # column node holding r's replica for s's join traversal.
        victim = net.grid.node_at(4, 2)
        net.radio.kill(victim)
        net.router.exclude(victim)
        engine.publish(s_origin, "s", (1, "b"))
        net.run_all()
        assert engine.rows("j", live_only=True) == {(1, "a", "b")}
        assert engine.region_repairs > 0


class TestDeliveryReportReasons:
    def test_report_breaks_down_give_up_reasons(self):
        net = GridNetwork(3, 1, reliable=True, self_repair=True)
        engine = GPAEngine(
            parse_program(PROGRAM), net, strategy="centralized",
            fault_tolerant=True,
        ).install()
        report = engine.delivery_report()
        assert report["reason"] == {}
        net.radio.kill(1)  # the only path between 0 and 2
        net.router.exclude(1)
        engine.publish(2, "r", (1, "a"))
        net.run_all()
        report = engine.delivery_report()
        assert report["gave_up"] >= 1
        assert sum(report["reason"].values()) == report["gave_up"]
        assert "no_route" in report["reason"]
