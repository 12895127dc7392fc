"""Tests for the radio layer, nodes, metrics, and energy accounting."""

import pytest

from repro.core.errors import NetworkError
from repro.net.energy import rx_cost, tx_cost
from repro.net.messages import BYTES_PER_SYMBOL, HEADER_BYTES, Message
from repro.net.metrics import MetricsCollector
from repro.net.network import GridNetwork


def collect(net, node_id, kind):
    got = []
    net.node(node_id).register_handler(kind, lambda node, msg: got.append(msg))
    return got


class TestSingleHop:
    def test_neighbor_send(self):
        net = GridNetwork(3)
        got = collect(net, 1, "ping")
        net.node(0).send(1, Message("ping"))
        net.run_all()
        assert len(got) == 1

    def test_non_neighbor_rejected(self):
        net = GridNetwork(3)
        with pytest.raises(NetworkError):
            net.node(0).send(8, Message("ping"))

    def test_delay_bounds(self):
        net = GridNetwork(3, delay_base=0.01, delay_jitter=0.005)
        times = []
        net.node(1).register_handler("ping", lambda n, m: times.append(net.now))
        net.node(0).send(1, Message("ping"))
        net.run_all()
        assert 0.01 <= times[0] <= 0.015

    def test_fifo_per_link(self):
        net = GridNetwork(3, delay_jitter=0.009, seed=3)
        order = []
        net.node(1).register_handler("m", lambda n, m: order.append(m.tag))
        for i in range(20):
            msg = Message("m")
            msg.tag = i
            net.node(0).send(1, msg)
        net.run_all()
        assert order == list(range(20))


class TestRouting:
    def test_multi_hop_delivery(self):
        net = GridNetwork(4)
        got = collect(net, 15, "data")
        net.node(0).send_routed(15, Message("data"))
        net.run_all()
        assert len(got) == 1
        assert net.metrics.total_messages == 6  # manhattan distance

    def test_routed_to_self_is_free(self):
        net = GridNetwork(3)
        got = collect(net, 4, "data")
        net.node(4).send_routed(4, Message("data"))
        net.run_all()
        assert len(got) == 1 and net.metrics.total_messages == 0

    def test_missing_handler_raises(self):
        net = GridNetwork(2)
        net.node(0).send(1, Message("nosuch"))
        with pytest.raises(NetworkError):
            net.run_all()


class TestLoss:
    def test_lossless_by_default(self):
        net = GridNetwork(3)
        got = collect(net, 1, "ping")
        for _ in range(50):
            net.node(0).send(1, Message("ping"))
        net.run_all()
        assert len(got) == 50

    def test_loss_drops_messages(self):
        net = GridNetwork(3, loss_rate=0.5, seed=9)
        got = collect(net, 1, "ping")
        for _ in range(200):
            net.node(0).send(1, Message("ping"))
        net.run_all()
        assert 50 < len(got) < 150
        assert net.metrics.dropped == 200 - len(got)

    def test_invalid_loss_rate(self):
        with pytest.raises(NetworkError):
            GridNetwork(2, loss_rate=1.5)


class TestMetrics:
    def test_tx_rx_counts(self):
        net = GridNetwork(3)
        collect(net, 1, "ping")
        net.node(0).send(1, Message("ping", payload_symbols=4, category="test"))
        net.run_all()
        m = net.metrics
        assert m.tx_count[0] == 1 and m.rx_count[1] == 1
        expected_bytes = HEADER_BYTES + 4 * BYTES_PER_SYMBOL
        assert m.tx_bytes[0] == expected_bytes
        assert m.category_tx["test"] == 1

    def test_energy_positive_and_tx_heavier(self):
        assert tx_cost(100) > rx_cost(100) > 0

    def test_load_imbalance(self):
        m = MetricsCollector()
        m.tx_count.update({1: 2, 2: 1})
        assert m.max_node_load == 2
        assert m.load_imbalance() == pytest.approx(2 / 1.5)

    def test_summary_keys(self):
        net = GridNetwork(2)
        summary = net.metrics.summary()
        for key in ("messages", "bytes", "energy_uJ", "max_node_load"):
            assert key in summary

    def test_reset(self):
        m = MetricsCollector()
        m.tx_count[1] = 1
        m.reset()
        assert m.total_messages == 0


class TestMessageSize:
    def test_size_model(self):
        msg = Message("k", payload_symbols=3)
        assert msg.size_bytes == HEADER_BYTES + 3 * BYTES_PER_SYMBOL

    def test_unique_ids(self):
        assert Message("a").msg_id != Message("a").msg_id
