"""GHT failover, anti-entropy re-sync, and self-repairing routing —
the recovery half of the E20 fault-injection subsystem."""

import pytest

from repro.core.parser import parse_program
from repro.dist.gpa import GPAEngine, StoreMsg
from repro.dist.regions import make_strategy
from repro.net.faults import FaultInjector, FaultSchedule
from repro.net.messages import Message
from repro.net.network import GridNetwork

from .test_gpa_walk import kill_in_flight, oracle_rows

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
        for pred, args, _fact in runtime.derived.visible("j"):
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

    def test_resync_does_not_resurrect_a_cancelled_derivation(self):
        """A replica that slept through a retraction keeps the stale
        derivation and re-sends it when a peer recovers — under the
        stamp it is stored with, so the peer's tombstone still outranks
        it."""
        rs = _result_replica_set(ght_replicas=3)
        net = GridNetwork(6, seed=13, ght_replicas=3)
        engine = GPAEngine(
            parse_program(PROGRAM), net, strategy="pa", fault_tolerant=True
        ).install()
        schedule = (
            FaultSchedule().crash(20.0, rs[1]).recover(40.0, rs[1])
            .crash(60.0, rs[0]).recover(80.0, rs[0])
        )
        engine.attach_faults(FaultInjector(net, schedule).arm())
        origin = net.grid.node_at(1, 2)
        tid = engine.publish(origin, "r", (1, "a"))
        engine.publish(net.grid.node_at(4, 5), "s", (1, "b"))
        net.run_until(30.0)
        engine.retract(origin, "r", (1, "a"), tid)  # rs[1] is down: missed
        net.run_until(50.0)
        resyncs = engine.resyncs
        net.run_all()
        assert engine.resyncs > resyncs  # rs[1] re-sent its copy to rs[0]
        (stale,), (cancelled,) = (
            [f for (pred, _), f in engine.runtimes[n].derived.items() if pred == "j"]
            for n in (rs[1], rs[0])
        )
        assert stale.visible and stale.derivations
        assert not cancelled.visible and not cancelled.derivations

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


def _sweep(program, pubs, dead=None, **engine_kwargs):
    """Local Storage on a 3x3 grid: every tuple stays at its source and
    a token sweeps ``_dfs_walk(net, 0) = [0, 1, 2, 5, 8, 4, 7, 3, 6]``.
    ``dead`` is killed first; it holds nothing and has no mates, so the
    walk just skips it."""
    net = GridNetwork(3, 3, reliable=True, self_repair=True)
    engine = GPAEngine(
        parse_program(program), net, strategy="local-storage",
        fault_tolerant=True, **engine_kwargs,
    ).install()
    if dead is not None:
        net.radio.kill(dead)
    for node, pred, args in pubs:
        engine.publish(node, pred, args)
        net.run_all()
    return engine


class TestSkippedMemberKeepsTheTurns:
    """A member skipped dead is one visit fewer, not a later turn: the
    token's stage follows from where it is on its itinerary."""

    def test_out_and_back_turns_at_the_far_end(self):
        """Counted in visits, the turn came one node late: the join was
        repeated on the first node of the return pass and the duplicate
        candidate never met the blocker stored at the far end."""
        program = "r(X) :- a(X), c(X), not b(X)."
        pubs = [(6, "b", (1,)), (3, "c", (1,)), (0, "a", (1,))]
        expected = oracle_rows(program, [(p, a) for _, p, a in pubs], "r")
        assert expected == set()
        assert _sweep(program, pubs).rows("r") == expected
        assert _sweep(program, pubs, dead=8).rows("r") == expected

    def test_multi_pass_survives_a_dead_tail(self):
        """A pass whose last member is dead used to end the whole
        traversal; the later passes are further along the same path."""
        program = "j(X, A, B, C) :- r(X, A), s(X, B), t(X, C)."
        pubs = [(2, "s", (1, "s")), (5, "t", (1, "t")), (0, "r", (1, "r"))]
        expected = oracle_rows(program, [(p, a) for _, p, a in pubs], "j")
        assert expected == {(1, "r", "s", "t")}
        healthy = _sweep(program, pubs, scheme="multi-pass")
        faulty = _sweep(program, pubs, dead=6, scheme="multi-pass")
        assert healthy.rows("j") == faulty.rows("j") == expected


class TestRepairStoreFirstHop:
    def test_refresh_retargets_past_a_member_killed_in_flight(self):
        """A soft-state refresh leaves its origin through the same walk
        as any storage message: the first member dies with the frame in
        the air, the store is re-targeted once and goes on."""
        net = GridNetwork(6, seed=13, reliable=True, self_repair=True)
        engine = GPAEngine(
            parse_program(PROGRAM), net, strategy="pa", fault_tolerant=True
        ).install()
        origin, victim = net.grid.node_at(1, 2), net.grid.node_at(2, 2)
        behind = [net.grid.node_at(x, 2) for x in (3, 4, 5)]
        engine.publish(origin, "zzz", (1,))  # not consumed: storage only
        net.run_all()
        for member in behind:  # as if a partition had cut them off
            del engine.runtimes[member].windows["zzz"]
        stores = {}  # the two repair stores, west and east, by identity

        def watch(ev):
            msg = getattr(ev.message, "inner", ev.message)
            if isinstance(msg, StoreMsg):
                stores[id(msg)] = msg

        net.radio.subscribe(watch)
        state = kill_in_flight(net, victim, "repair")
        engine.refresh_soft_state()
        net.run_all()
        assert not state["armed"] and not net.radio.is_alive(victim)
        for member in behind:
            assert len(engine.runtimes[member].windows["zzz"]) == 1
        report = engine.delivery_report()
        assert report["gave_up"] == 1 and sum(report["reason"].values()) == 1
        assert sorted(m.retargets for m in stores.values()) == [0, 1]


def _fixed_region(net, region):
    """A strategy whose every join region is ``region`` (nothing is
    replicated)."""
    strategy = make_strategy("local-storage", net)
    strategy.join_path = lambda origin: list(region)
    return strategy


class _VisitLog(GPAEngine):
    """Records ``[member, subgoal sets live partials could join there,
    partials carried on]`` per join-token visit, and each token."""

    def install(self):
        self.tokens, self.visits = [], []
        return super().install()

    def _on_join(self, node, token):
        self.tokens.append(token)
        self.visits.append([node.id, [], None])
        super()._on_join(node, token)

    def _extend_partials(self, runtime, rp, token, node, allowed=None):
        if token.partials:
            self.visits[-1][1].append(allowed and tuple(allowed))
        super()._extend_partials(runtime, rp, token, node, allowed)

    def _continue_token(self, node, token):
        self.visits[-1][2] = bool(token.partials and token.path)
        super()._continue_token(node, token)


def _visits_at_17011d4(kind, region, others):
    """The same record from the two encodings this replaced: a counter
    of visits (``first_pass_nodes``) for out-and-back, a pass number
    with the path rebuilt at each turn for multi-pass."""
    if kind == "out-and-back" and len(region) > 1:
        path = region + region[:-1][::-1]
        left = len(region)
        visits = []
        for i, member in enumerate(path):
            joins = [None] if left > 0 else []
            left -= 1
            visits.append([member, joins, left > 0])
        return visits
    if kind != "multi-pass":
        return [
            [member, [None], i + 1 < len(region)]
            for i, member in enumerate(region)
        ]
    visits, path, current, direction = [], list(region), 0, 1
    while path:
        member = path.pop(0)
        joins = [(others[current],)]
        while not path and current + 1 < len(others):
            current += 1
            direction *= -1
            path = (region if direction > 0 else region[::-1])[1:]
            joins.append((others[current],))
        visits.append([member, joins, bool(path)])
    return visits


class TestItinerary:
    """What ``_launch_token`` lays out and ``_on_join`` reads back,
    visit by visit: only the trigger is published, so its partial never
    completes and is carried for as long as the traversal lets it."""

    @pytest.mark.parametrize("region", [[0], [0, 1], [0, 1, 2, 5, 8]])
    @pytest.mark.parametrize("subgoals", [3, 4])
    @pytest.mark.parametrize("kind", ["one-pass", "out-and-back", "multi-pass"])
    def test_visits_match_the_old_counters(self, kind, subgoals, region):
        body = ["r(X)", "s(X)", "t(X)", "u(X)"][:subgoals]
        if kind == "out-and-back":
            body.append("not b(X)")
        net = GridNetwork(3, 3)
        engine = _VisitLog(
            parse_program(f"j(X) :- {', '.join(body)}."), net,
            strategy=_fixed_region(net, region),
            scheme="multi-pass" if kind == "multi-pass" else "one-pass",
        ).install()
        engine.publish(0, "s", (1,))
        net.run_all()
        others = [i for i in range(subgoals) if i != 1]
        assert engine.visits == _visits_at_17011d4(kind, region, others)
        assert len({id(t) for t in engine.tokens}) == 1

    def test_a_continuation_token_is_one_stage(self):
        """r's token passes (1, 3) before s's replica lands there; the
        partial parked for it goes on as a token of its own."""
        net = GridNetwork(6, seed=13)
        engine = _VisitLog(
            parse_program(PROGRAM), net, strategy="pa", mode="pipelined"
        ).install()
        engine.publish(net.grid.node_at(5, 3), "s", (1, "b"))
        net.run_until(1e-3)
        engine.publish(net.grid.node_at(1, 0), "r", (1, "a"))
        net.run_all()
        assert engine.rows("j") == {(1, "a", "b")}
        launched, *continued = {
            id(t): t for t in engine.tokens if t.trigger.pred == "r"
        }.values()
        assert continued and all(t.region is launched.region for t in continued)
        assert launched.stages == ((0, None),)
        assert all(t.stages == ((0, None),) for t in continued)
