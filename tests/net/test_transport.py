"""Tests for the reliable transport layer (ack/retransmit/backoff/dedup).

The scripted-RNG tests drive the loss draws deterministically: the
simulator's RNG is replaced with a stub whose ``random()`` pops from a
fixed script (loss decisions) while ``uniform()`` (delay/backoff
jitter) keeps an independent seeded stream, so each test forces the
exact lose-this-frame / deliver-that-frame sequence it needs.
"""

import random

import pytest

from repro.core.errors import NetworkError
from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program
from repro.dist.gpa import GPAEngine
from repro.net.events import RadioEvent
from repro.net.messages import Message
from repro.net import transport
from repro.net.network import GridNetwork
from repro.net.transport import TransportConfig


class ScriptedRNG:
    """``random()`` (the loss draw) pops from a script; ``uniform()``
    (delay and backoff jitter) stays an ordinary seeded stream."""

    def __init__(self, script, seed=0):
        self.script = list(script)
        self._fallback = random.Random(seed)
        self._jitter = random.Random(seed + 1)

    def random(self):
        if self.script:
            return self.script.pop(0)
        return self._fallback.random()

    def uniform(self, a, b):
        return self._jitter.uniform(a, b)


SURVIVE, LOSE = 0.99, 0.0


def reliable_pair(script=None, **kwargs):
    """A 2-node line with reliability on; node 1 collects 'ping's."""
    kwargs.setdefault("loss_rate", 0.5 if script else 0.0)
    net = GridNetwork(2, 1, reliable=True, **kwargs)
    if script is not None:
        net.sim.rng = ScriptedRNG(script)
    got = []
    net.node(1).register_handler("ping", lambda n, m: got.append(m))
    return net, got


class TestHappyPath:
    def test_delivered_status_and_ack(self):
        net, got = reliable_pair()
        statuses = []
        net.node(0).send(1, Message("ping"), on_status=statuses.append)
        net.run_all()
        assert len(got) == 1
        assert statuses == ["delivered"]
        assert net.metrics.acks == 1
        assert net.metrics.retries == 0
        assert net.metrics.dup_suppressed == 0

    def test_acks_pay_energy_and_are_categorized(self):
        net, _ = reliable_pair()
        net.node(0).send(1, Message("ping"))
        net.run_all()
        # The receiver transmitted the ack: it pays tx energy and the
        # frame shows up under the 'ack' traffic category.
        assert net.metrics.category_tx["ack"] == 1
        assert net.metrics.tx_count[1] == 1
        assert net.metrics.energy[1] > 0

    def test_unreliable_default_sends_no_acks(self):
        net = GridNetwork(2, 1)
        net.node(1).register_handler("ping", lambda n, m: None)
        net.node(0).send(1, Message("ping"))
        net.run_all()
        assert net.metrics.acks == 0
        assert net.metrics.total_messages == 1

    def test_per_call_reliable_override(self):
        net = GridNetwork(2, 1)  # radio default: unreliable
        statuses = []
        net.node(1).register_handler("ping", lambda n, m: None)
        net.node(0).send(
            1, Message("ping"), reliable=True, on_status=statuses.append
        )
        net.run_all()
        assert statuses == ["delivered"]
        assert net.metrics.acks == 1


class TestRetransmitAndDedup:
    def test_lost_data_frame_is_retransmitted(self):
        net, got = reliable_pair(script=[LOSE, SURVIVE, SURVIVE])
        statuses = []
        net.node(0).send(1, Message("ping"), on_status=statuses.append)
        net.run_all()
        assert len(got) == 1
        assert statuses == ["delivered"]
        assert net.metrics.retries == 1
        assert net.metrics.dup_suppressed == 0

    def test_lost_ack_retransmit_is_deduplicated(self):
        # data survives, its ack is lost, the retransmission survives
        # and is suppressed, its ack survives.
        net, got = reliable_pair(script=[SURVIVE, LOSE, SURVIVE, SURVIVE])
        statuses = []
        net.node(0).send(1, Message("ping"), on_status=statuses.append)
        net.run_all()
        assert len(got) == 1  # handler ran exactly once
        assert statuses == ["delivered"]
        assert net.metrics.retries == 1
        assert net.metrics.dup_suppressed == 1
        assert net.metrics.acks == 1

    def test_exactly_once_under_sustained_loss(self):
        net, got = reliable_pair(loss_rate=0.2, seed=5)
        net.sim.rng = random.Random(5)
        for i in range(50):
            msg = Message("ping")
            msg.tag = i
            net.node(0).send(1, msg)
        net.run_all()
        tags = [m.tag for m in got]
        assert len(tags) == len(set(tags))  # never delivered twice
        assert net.metrics.retry_exhausted == 0
        assert sorted(tags) == list(range(50))
        assert net.metrics.retries > 0


class TestDedupMemory:
    """The receiver remembers a frame for one retry horizon plus one
    flight after its first receipt, then forgets it."""

    @staticmethod
    def span(net):
        flight = net.radio.max_flight_delay
        return flight + net.radio.transport.config.retry_horizon(flight)

    def test_stays_bounded_over_repeated_rounds(self):
        net, got = reliable_pair(loss_rate=0.15, seed=4)
        seen = []

        def burst(round_):
            for i in range(20):
                msg = Message("ping")
                msg.tag = (round_, i)
                net.node(0).send(1, msg)

        for round_ in range(6):
            # Each burst starts one span after the previous one ended.
            net.sim.schedule(self.span(net), lambda r=round_: burst(r))
            net.run_all()
            seen.append(sum(map(len, net.radio.transport._seen.values())))
        assert net.metrics.dup_suppressed > 0  # the memory was used
        assert net.metrics.retry_exhausted == 0
        tags = [m.tag for m in got]
        assert sorted(tags) == [(r, i) for r in range(6) for i in range(20)]
        # Only the last burst's receipts are held, not all 120.
        assert seen == [20] * 6

    def test_kept_for_one_span_after_first_receipt(self):
        net, _ = reliable_pair()
        net.node(0).send(1, Message("ping"))
        net.run_all()
        reliable = net.radio.transport
        (received,) = reliable._seen[1].values()
        reliable._prune(received + self.span(net) - 1e-9)
        assert len(reliable._seen[1]) == 1
        reliable._prune(received + self.span(net))
        assert len(reliable._seen[1]) == 0

    def test_forget_clears_a_rebooted_receiver(self):
        net, _ = reliable_pair()
        net.node(0).send(1, Message("ping"))
        net.run_all()
        reliable = net.radio.transport
        assert len(reliable._seen[1]) == 1
        reliable.forget(1)
        assert not reliable._seen.get(1)

    def test_late_duplicate_still_suppressed(self):
        # Every ack but the last is lost: the last retransmission lands
        # near the end of the retry horizon and is still recognized.
        net, got = reliable_pair(
            script=[SURVIVE, LOSE] * 5 + [SURVIVE, SURVIVE]
        )
        statuses = []
        net.node(0).send(1, Message("ping"), on_status=statuses.append)
        net.run_all()
        assert len(got) == 1 and statuses == ["delivered"]
        assert net.metrics.retries == 5
        assert net.metrics.dup_suppressed == 5


class TestBackoffAndGiveUp:
    def test_exponential_backoff_spacing(self, monkeypatch):
        # Every data frame is lost; with jitter zeroed the attempts sit
        # exactly at t=0, T, 3T, 7T, ... (timeout doubling each retry),
        # T = 2.5 one-hop flights = 0.1.
        monkeypatch.setattr(transport, "TIMEOUT_JITTER", 0.0)
        net, _ = reliable_pair(
            script=[LOSE] * 4, delay_base=0.04, delay_jitter=0.0,
            transport=TransportConfig(max_retries=3),
        )
        tx_times = []
        net.radio.subscribe(
            lambda ev: tx_times.append(ev.time) if ev.event == "tx" else None
        )
        statuses = []
        net.node(0).send(1, Message("ping"), on_status=statuses.append)
        net.run_all()
        assert tx_times == pytest.approx([0.0, 0.1, 0.3, 0.7])
        assert statuses == ["gave_up"]
        assert net.metrics.retries == 3
        assert net.metrics.retry_exhausted == 1

    def test_timeouts_follow_the_delay_model(self):
        # T = 2.5 one-hop flights; each retry waits its timeout plus up
        # to half of it again, and the timeout doubles per attempt.
        net, _ = reliable_pair(script=[LOSE] * 6)
        tx_times = []
        net.radio.subscribe(
            lambda ev: tx_times.append(ev.time) if ev.event == "tx" else None
        )
        net.node(0).send(1, Message("ping"))
        net.run_all()
        flight = net.radio.max_flight_delay
        timeout = transport.ACK_TIMEOUT_FLIGHTS * flight
        gaps = [b - a for a, b in zip(tx_times, tx_times[1:])]
        assert len(gaps) == 5
        for k, gap in enumerate(gaps):
            assert timeout * 2 ** k <= gap <= 1.5 * timeout * 2 ** k
        # The last attempt flies within the retry horizon.
        horizon = net.radio.transport.config.retry_horizon(flight)
        assert tx_times[-1] - tx_times[0] <= horizon
        assert net.radio.max_hop_delay == pytest.approx(flight + horizon)

    def test_retry_budget_bounds_attempts(self):
        cfg = TransportConfig(max_retries=2)
        net, got = reliable_pair(script=[LOSE] * 3, transport=cfg)
        net.node(0).send(1, Message("ping"))
        net.run_all()
        assert got == []
        assert net.metrics.tx_count[0] == 3  # 1 attempt + 2 retries
        assert net.metrics.retry_exhausted == 1

    def test_give_up_event_reports_final_attempt(self):
        cfg = TransportConfig(max_retries=2)
        net, _ = reliable_pair(script=[LOSE] * 3, transport=cfg)
        events = []
        net.radio.subscribe(events.append)
        net.node(0).send(1, Message("ping"))
        net.run_all()
        give_ups = [e for e in events if e.event == "give_up"]
        assert len(give_ups) == 1 and give_ups[0].attempt == 3

    def test_invalid_config_rejected(self):
        with pytest.raises(NetworkError):
            TransportConfig(max_retries=-1)

    def test_retry_horizon_widens_hop_delay(self):
        unreliable = GridNetwork(2, 1)
        reliable = GridNetwork(2, 1, reliable=True)
        assert unreliable.radio.max_hop_delay == pytest.approx(
            unreliable.radio.max_flight_delay
        )
        assert reliable.radio.max_hop_delay > reliable.radio.max_flight_delay


class TestNodeDeath:
    def test_dead_destination_gives_up(self):
        net, got = reliable_pair(
            transport=TransportConfig(max_retries=2)
        )
        net.radio.kill(1)
        statuses = []
        net.node(0).send(1, Message("ping"), on_status=statuses.append)
        net.run_all()
        assert got == []
        assert statuses == ["gave_up"]

    def test_destination_dies_mid_flight(self):
        # The frame is in the air when the destination dies: the rx is
        # dropped with reason 'dead', every retry hits a dead radio,
        # and the transfer eventually gives up.
        net, got = reliable_pair(
            delay_base=0.01, delay_jitter=0.0,
            transport=TransportConfig(max_retries=2),
        )
        drops = []
        net.radio.subscribe(
            lambda ev: drops.append(ev.detail) if ev.event == "drop" else None
        )
        statuses = []
        net.node(0).send(1, Message("ping"), on_status=statuses.append)
        net.sim.schedule(0.005, lambda: net.radio.kill(1))
        net.run_all()
        assert got == []
        assert statuses == ["gave_up"]
        assert drops.count("dead") == 3

    def test_dead_sender_stops_retrying(self):
        net, got = reliable_pair(
            script=[LOSE] * 4,
            transport=TransportConfig(max_retries=3),
        )
        statuses = []
        net.node(0).send(1, Message("ping"), on_status=statuses.append)
        net.sim.schedule(0.01, lambda: net.radio.kill(0))
        net.run_all()
        # A dead sender silently abandons the transfer: no retries
        # after death, no give_up report.
        assert got == [] and statuses == []
        assert net.metrics.tx_count[0] == 1

    def test_unreliable_death_mid_flight_drops_silently(self):
        net = GridNetwork(2, 1, delay_jitter=0.0)
        got = []
        net.node(1).register_handler("ping", lambda n, m: got.append(m))
        net.node(0).send(1, Message("ping"))
        net.sim.schedule(0.005, lambda: net.radio.kill(1))
        net.run_all()
        assert got == [] and net.metrics.dropped == 1

    def test_give_up_reason_distinguishes_dead_from_budget(self):
        """A two-argument status callback learns *why* the transport
        gave up: 'dead' when the destination's radio is down at
        exhaustion time, 'budget' when the peer is alive but every
        attempt was lost.  Single-argument callbacks (above) keep
        working unchanged."""
        # Dead destination: reason 'dead'.
        net, got = reliable_pair(
            transport=TransportConfig(max_retries=2)
        )
        net.radio.kill(1)
        outcomes = []
        net.node(0).send(
            1, Message("ping"),
            on_status=lambda status, reason="": outcomes.append((status, reason)),
        )
        net.run_all()
        assert outcomes == [("gave_up", "dead")]
        # Live destination, loss budget exhausted: reason 'budget'.
        net, got = reliable_pair(
            script=[LOSE] * 10,
            transport=TransportConfig(max_retries=2),
        )
        outcomes = []
        net.node(0).send(
            1, Message("ping"),
            on_status=lambda status, reason="": outcomes.append((status, reason)),
        )
        net.run_all()
        assert outcomes == [("gave_up", "budget")]


class TestFifoAndContention:
    def test_fifo_under_simultaneous_arrivals(self):
        # With zero jitter both frames would arrive at the same instant;
        # the link stays FIFO (the second queues behind the first).
        net = GridNetwork(2, 1, delay_jitter=0.0)
        order = []
        net.node(1).register_handler("m", lambda n, m: order.append(m.tag))
        for i in range(5):
            msg = Message("m")
            msg.tag = i
            net.node(0).send(1, msg)
        net.run_all()
        assert order == list(range(5))

    def test_reliable_frames_keep_fifo_order(self):
        net, got = reliable_pair(delay_jitter=0.0)
        for i in range(5):
            msg = Message("ping")
            msg.tag = i
            net.node(0).send(1, msg)
        net.run_all()
        assert [m.tag for m in got] == list(range(5))

    def test_lost_frame_still_occupies_airtime(self):
        # Collision-model fix: a frame fated to be lost is still noise.
        # Frame A (node 1 -> 4) is lost; frame B (node 3 -> 4) overlaps
        # A's airtime and must collide even though A never decodes.
        net = GridNetwork(3, collisions=True, loss_rate=0.5, delay_jitter=0.0)
        net.sim.rng = ScriptedRNG([LOSE, SURVIVE])
        net.node(4).register_handler("ping", lambda n, m: None)
        net.node(1).send(4, Message("ping", payload_symbols=50))
        net.node(3).send(4, Message("ping", payload_symbols=50))
        net.run_all()
        assert net.radio.collision_count == 1
        assert net.metrics.rx_count[4] == 0

    def test_same_sender_loss_does_not_collide_followup(self):
        # Same-sender frames are FIFO-queued, never colliding — even
        # when the first one is lost.
        net = GridNetwork(3, collisions=True, loss_rate=0.5, delay_jitter=0.0)
        net.sim.rng = ScriptedRNG([LOSE, SURVIVE])
        got = []
        net.node(4).register_handler("ping", lambda n, m: got.append(m))
        net.node(1).send(4, Message("ping", payload_symbols=50))
        net.node(1).send(4, Message("ping", payload_symbols=50))
        net.run_all()
        assert net.radio.collision_count == 0
        assert len(got) == 1


class TestRoutedReliability:
    def test_multi_hop_delivery_status(self):
        net = GridNetwork(4, reliable=True, loss_rate=0.2, seed=3)
        got = []
        net.node(15).register_handler("data", lambda n, m: got.append(m))
        statuses = []
        net.node(0).send_routed(15, Message("data"), on_status=statuses.append)
        net.run_all()
        assert len(got) == 1
        # 'delivered' fires end-to-end at the destination, once.
        assert statuses == ["delivered"]

    def test_routed_give_up_propagates(self):
        net = GridNetwork(
            3, 1, reliable=True,
            transport=TransportConfig(max_retries=1),
        )
        net.node(2).register_handler("data", lambda n, m: None)
        net.radio.kill(2)
        statuses = []
        net.node(0).send_routed(2, Message("data"), on_status=statuses.append)
        net.run_all()
        assert statuses == ["gave_up"]

    def test_routed_to_self_reports_delivered(self):
        net = GridNetwork(3, reliable=True)
        got = []
        net.node(4).register_handler("data", lambda n, m: got.append(m))
        statuses = []
        net.node(4).send_routed(4, Message("data"), on_status=statuses.append)
        net.run_all()
        assert len(got) == 1 and statuses == ["delivered"]


class TestObserversAndTracing:
    def test_observer_sees_transport_events(self):
        net, _ = reliable_pair(script=[SURVIVE, LOSE, SURVIVE, SURVIVE])
        events = []
        net.radio.subscribe(events.append)
        net.node(0).send(1, Message("ping"))
        net.run_all()
        kinds = [e.event for e in events]
        for kind in ("tx", "rx", "drop", "retry", "dup", "ack"):
            assert kind in kinds
        assert all(isinstance(e, RadioEvent) for e in events)
        retry = next(e for e in events if e.event == "retry")
        assert retry.attempt == 2
        # The ack frames are categorized as such.
        assert any(e.category == "ack" for e in events if e.event == "tx")

    def test_unsubscribe_stops_events(self):
        net, _ = reliable_pair()
        events = []
        observer = net.radio.subscribe(events.append)
        net.radio.unsubscribe(observer)
        net.node(0).send(1, Message("ping"))
        net.run_all()
        assert events == []


class TestDerivationDedup:
    def test_retransmitted_tuple_derives_once(self):
        """Seeded end-to-end check: under 20% loss with reliability on,
        retransmissions occur and duplicates are suppressed (both
        asserted), yet every derived fact carries exactly one
        derivation and the result set is oracle-exact — at-most-once
        per hop protects the set-of-derivations semantics."""
        program = "j(K, A, B) :- r(K, A), s(K, B)."
        net = GridNetwork(4, seed=1, loss_rate=0.2, reliable=True)
        engine = GPAEngine(
            parse_program(program), net, strategy="pa"
        ).install()
        rng = random.Random(1)
        facts = []
        for i in range(5):
            for stream in ("r", "s"):
                node = rng.randrange(16)
                args = (rng.randrange(2), f"{stream}{i}")
                engine.publish(node, stream, args)
                facts.append((stream, args))
        net.run_all()
        # The lossy run actually exercised the retransmit/dedup paths.
        assert net.metrics.retries > 0
        assert net.metrics.dup_suppressed > 0
        db = Database()
        for pred, args in facts:
            db.assert_fact(pred, args)
        evaluate(parse_program(program), db)
        assert engine.rows("j") == db.rows("j")
        for runtime in engine.runtimes.values():
            for fact in runtime.derived.values():
                assert len(fact.derivations) == 1

    def test_dedup_memory_bounded_over_join_rounds(self):
        """Five join rounds, one retry span apart, on one lossy
        reliable network: every round is oracle-exact, and the dedup
        memory holds no more than the last round's frames."""
        program = parse_program("j(K, A, B) :- r(K, A), s(K, B).")
        net = GridNetwork(4, seed=2, loss_rate=0.1, reliable=True)
        engine = GPAEngine(program, net, strategy="pa").install()
        flight = net.radio.max_flight_delay
        span = flight + net.radio.transport.config.retry_horizon(flight)
        rng = random.Random(2)
        db = Database()
        fresh = []  # data frames delivered (not suppressed) per round
        net.radio.subscribe(lambda ev: fresh.__setitem__(-1, fresh[-1] + (
            (ev.event == "rx" and ev.category != "ack") - (ev.event == "dup")
        )))
        held = []
        for round_ in range(5):
            def publish(round_=round_):
                for stream in ("r", "s"):
                    for i in range(3):
                        args = (i % 2, f"{stream}{round_}.{i}")
                        engine.publish(rng.randrange(16), stream, args)
                        db.assert_fact(stream, args)
            fresh.append(0)
            net.sim.schedule(span, publish)
            net.run_all()
            held.append(sum(map(len, net.radio.transport._seen.values())))
            oracle = db.copy()
            evaluate(program, oracle)
            assert engine.rows("j") == oracle.rows("j")
        assert net.metrics.dup_suppressed > 0
        # A round starts one span after the last ended, so its first
        # receipt prunes every earlier round's frames.
        assert all(h <= f for h, f in zip(held, fresh))
        assert held[-1] < sum(fresh) / 4
