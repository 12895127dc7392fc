"""Tests for the finalized (v2) messaging API.

``category`` is a field on :class:`Message`, set at construction; the
typed :class:`RadioEvent` observer protocol is the one radio hook.
The deprecated ``category=`` keyword on the send paths and the legacy
``Radio.listeners`` 5-tuple hook completed their deprecation cycle
(PR 3 deprecated them) and are now **removed** — these tests pin both
the removal and the replacement paths.
"""

import copy
import pickle
import warnings

import pytest

from repro.core.parser import parse_program
from repro.dist.gpa import GPAEngine
from repro.net.events import RadioEvent
from repro.net.messages import Message
from repro.net.network import GridNetwork
from repro.net.node import RoutedEnvelope


def quiet_net(m=3, **kwargs):
    net = GridNetwork(m, **kwargs)
    for node in net.nodes.values():
        node.register_handler("ping", lambda n, msg: None)
    return net


class TestCategoryField:
    def test_default_category(self):
        assert Message("ping").category == "data"

    def test_explicit_category_reaches_metrics(self):
        net = quiet_net()
        net.node(0).send(1, Message("ping", category="gossip"))
        net.run_all()
        assert net.metrics.category_tx["gossip"] == 1

    def test_envelope_inherits_inner_category(self):
        envelope = RoutedEnvelope(Message("ping", category="storage"), dst=3)
        assert envelope.category == "storage"


class TestEnvelopeSize:
    """An envelope fixes its size at construction; a pickled envelope
    (shard checkpoints, border copies) carries the payload, not the
    size, and derives the size again on load."""

    def test_size_is_the_inner_payloads(self):
        inner = Message("ping", payload_symbols=5)
        assert RoutedEnvelope(inner, dst=3).size_bytes == inner.size_bytes

    @pytest.mark.parametrize("clone", [
        lambda env: pickle.loads(pickle.dumps(env)), copy.copy,
    ])
    def test_size_and_extras_survive_a_clone(self, clone):
        envelope = RoutedEnvelope(Message("ping", payload_symbols=5), dst=3)
        envelope.tag = "probe"
        twin = clone(envelope)
        assert twin.size_bytes == envelope.size_bytes == 28
        assert (twin.dst, twin.payload_symbols, twin.tag) == (3, 5, "probe")

    def test_pickled_state_leaves_the_size_out(self):
        envelope = RoutedEnvelope(Message("ping", payload_symbols=5), dst=3)
        _, slots = envelope.__getstate__()
        assert "size_bytes" not in slots
        assert slots["payload_symbols"] == 5


class TestCategoryKwargRemoved:
    """The ``category=`` keyword is gone, not just deprecated: passing
    it is a TypeError, and the library emits no DeprecationWarning on
    any send path (CI runs the suite with ``-W error`` to prove it)."""

    def test_radio_transmit_rejects_kwarg(self):
        net = quiet_net()
        with pytest.raises(TypeError):
            net.radio.transmit(
                0, 1, Message("ping"), net.node(1).deliver, category="legacy"
            )

    def test_node_send_rejects_kwarg(self):
        net = quiet_net()
        with pytest.raises(TypeError):
            net.node(0).send(1, Message("ping"), category="legacy")

    def test_node_send_routed_rejects_kwarg(self):
        net = quiet_net(4)
        with pytest.raises(TypeError):
            net.node(0).send_routed(15, Message("ping"), category="legacy")

    def test_routed_envelope_rejects_kwarg(self):
        with pytest.raises(TypeError):
            RoutedEnvelope(Message("ping"), dst=3, category="legacy")

    def test_send_paths_emit_no_deprecation_warnings(self):
        net = quiet_net(4, reliable=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            net.node(0).send(1, Message("ping", category="clean"))
            net.node(0).send_routed(15, Message("ping", category="clean"))
            net.run_all()


class TestLegacyListenersRemoved:
    def test_radio_has_no_listeners_attribute(self):
        net = quiet_net()
        assert not hasattr(net.radio, "listeners")

    def test_observer_protocol_is_the_replacement(self):
        net = quiet_net(2, reliable=True)
        seen = []
        net.radio.subscribe(seen.append)
        net.node(0).send(1, Message("ping", category="test"))
        net.run_all()
        assert all(isinstance(ev, RadioEvent) for ev in seen)
        kinds = [(ev.event, ev.src, ev.dst, ev.category) for ev in seen]
        # Data tx/rx, the ack's tx/rx, and the transport-level ack —
        # one typed stream carries physical and transport events alike.
        assert ("tx", 0, 1, "test") in kinds
        assert ("rx", 0, 1, "test") in kinds
        assert ("tx", 1, 0, "ack") in kinds
        assert any(ev.event == "ack" for ev in seen)

    def test_unsubscribe(self):
        net = quiet_net()
        seen = []
        observer = net.radio.subscribe(seen.append)
        net.radio.unsubscribe(observer)
        net.node(0).send(1, Message("ping"))
        net.run_all()
        assert seen == []


class TestRadioEvents:
    """What one ``radio.subscribe`` observer sees: one typed event per
    occurrence, as it happens."""

    @staticmethod
    def record(net):
        events = []
        net.radio.subscribe(events.append)
        return events

    @classmethod
    def join_round(cls):
        """A two-stream join round on a 5x5 grid, recorded."""
        net = GridNetwork(5, seed=2)
        events = cls.record(net)
        engine = GPAEngine(
            parse_program("j(X, A, B) :- r(X, A), s(X, B)."),
            net, strategy="pa",
        ).install()
        engine.publish(3, "r", (1, "a"))
        engine.publish(12, "s", (1, "b"))
        net.run_all()
        return events

    def test_one_hop_send_is_tx_then_rx(self):
        net = quiet_net(4)
        events = self.record(net)
        net.node(0).send(1, Message("ping", category="test"))
        net.run_all()
        assert [(e.event, e.src, e.dst, e.category) for e in events] == [
            ("tx", 0, 1, "test"), ("rx", 0, 1, "test"),
        ]
        assert events[0].time < events[1].time

    def test_lost_frame_is_a_drop(self):
        net = quiet_net(4, loss_rate=0.999, seed=1)
        events = self.record(net)
        net.node(0).send(1, Message("ping"))
        net.run_all()
        assert [e.event for e in events] == ["tx", "drop"]

    def test_frames_carry_their_kind(self):
        net = quiet_net(4)
        net.node(1).register_handler("pong", lambda n, m: None)
        events = self.record(net)
        for kind in ("ping", "pong", "ping"):
            net.node(0).send(1, Message(kind))
        net.run_all()
        sent = [e.message.kind for e in events if e.event == "tx"]
        assert sent == ["ping", "pong", "ping"]

    def test_every_unreliable_frame_ends_once(self):
        # Without reliability or collisions a frame is sent, then either
        # received or dropped: no other event, and no frame twice.
        events = self.join_round()
        ends = [(e.src, e.message.msg_id) for e in events if e.event != "tx"]
        sent = [(e.src, e.message.msg_id) for e in events if e.event == "tx"]
        assert {e.event for e in events} <= {"tx", "rx", "drop"}
        assert sorted(ends) == sorted(sent)
        assert len(set(sent)) == len(sent)

    def test_storage_phase_frames_are_categorized(self):
        events = self.join_round()
        storage = [e for e in events if e.category == "storage"]
        assert storage and all(e.event in ("tx", "rx") for e in storage)
        assert {"storage", "join"} <= {e.category for e in events}

    def test_events_arrive_in_time_order(self):
        events = self.join_round()
        times = [e.time for e in events]
        assert len(set(times)) > 2 and times == sorted(times)

    def test_routed_frame_keeps_its_id_across_hops(self):
        net = quiet_net(4)
        events = self.record(net)
        net.node(0).send_routed(3, Message("ping"))
        net.run_all()
        hops = [(e.src, e.dst) for e in events if e.event == "tx"]
        assert hops == [(0, 1), (1, 2), (2, 3)]
        assert len({e.message.msg_id for e in events}) == 1
