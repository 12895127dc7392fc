"""Direct unit tests for the MetricsCollector (E1/E3's instrument)."""

import pytest

from repro.core.parser import parse_program
from repro.dist.gpa import GPAEngine
from repro.net import energy
from repro.net.energy import rx_cost, tx_cost
from repro.net.messages import BYTES_PER_SYMBOL, HEADER_BYTES, Message
from repro.net.metrics import MetricsCollector
from repro.net.network import GridNetwork


def frame(net, src, dst, symbols, category="x"):
    """Send one frame ``src`` -> ``dst`` and let it land."""
    net.radio.transmit(
        src, dst, Message("ping", payload_symbols=symbols, category=category),
        net.node(dst).deliver,
    )
    net.run_all()


def pinged(nodes=2):
    """A ``nodes`` x ``nodes`` grid whose nodes take "ping" frames."""
    net = GridNetwork(nodes)
    for node in net.nodes.values():
        node.register_handler("ping", lambda node, msg: None)
    return net


class TestRecording:
    def test_tx_updates_all_maps(self):
        net = pinged()
        frame(net, 0, 1, 3, "storage")
        frame(net, 0, 1, 1, "join")
        m = net.metrics
        big = HEADER_BYTES + 3 * BYTES_PER_SYMBOL
        small = HEADER_BYTES + BYTES_PER_SYMBOL
        assert m.tx_count[0] == 2
        assert m.tx_bytes[0] == big + small
        assert m.category_tx == {"storage": 1, "join": 1}
        assert m.category_bytes == {"storage": big, "join": small}
        assert m.energy[0] == tx_cost(big) + tx_cost(small)

    def test_rx_and_drop(self):
        net = pinged(3)
        frame(net, 0, 1, 3)
        net.radio.link_down(1, 2)
        frame(net, 1, 2, 3)
        m = net.metrics
        size = HEADER_BYTES + 3 * BYTES_PER_SYMBOL
        assert m.rx_count[1] == 1 and m.rx_bytes[1] == size
        assert m.energy[1] == rx_cost(size) + tx_cost(size)
        assert 2 not in m.rx_count
        assert m.dropped == 1

    def test_totals(self):
        net = pinged()
        frame(net, 0, 1, 1)
        frame(net, 1, 0, 3)
        m = net.metrics
        assert m.total_messages == 2
        assert m.total_bytes == 2 * HEADER_BYTES + 4 * BYTES_PER_SYMBOL
        assert m.total_energy == pytest.approx(
            tx_cost(12) + rx_cost(12) + tx_cost(20) + rx_cost(20)
        )

    @pytest.mark.parametrize("reliable", [False, True])
    def test_energy_is_the_cost_of_counted_frames(self, reliable):
        # Every frame a node sent or heard, acks and retries included,
        # costs its per-frame base plus its bytes: nothing else.
        net = GridNetwork(4, seed=2, loss_rate=0.1, reliable=reliable)
        engine = GPAEngine(parse_program("j(K, A, B) :- r(K, A), s(K, B)."),
                           net, strategy="pa").install()
        for i in range(6):
            engine.publish(i * 5 % 16, "r", (i % 2, f"r{i}"))
            engine.publish(i * 7 % 16, "s", (i % 2, f"s{i}"))
        net.run_all()
        m = net.metrics
        assert m.total_messages > 0
        for node in net.nodes:
            assert m.energy[node] == pytest.approx(
                energy.TX_BASE * m.tx_count[node]
                + energy.TX_PER_BYTE * m.tx_bytes[node]
                + energy.RX_BASE * m.rx_count[node]
                + energy.RX_PER_BYTE * m.rx_bytes[node]
            )


class TestLoadImbalance:
    def test_empty_collector_is_balanced(self):
        assert MetricsCollector().load_imbalance() == 1.0

    def test_zero_entries_do_not_skew_the_mean(self):
        # Reading tx_count[n] (a defaultdict) inserts a zero; those
        # phantom entries must not drag the transmitters-only mean down.
        m = MetricsCollector()
        m.tx_count[1] = 2
        _ = m.tx_count[7]
        _ = m.tx_count[8]
        assert m.load_imbalance() == 1.0

    def test_all_zero_loads_is_balanced(self):
        m = MetricsCollector()
        _ = m.tx_count[3]
        assert m.load_imbalance() == 1.0

    def test_max_over_mean(self):
        m = MetricsCollector()
        m.tx_count.update({1: 2, 2: 1})
        assert m.load_imbalance() == pytest.approx(2 / 1.5)

    def test_n_nodes_exposes_hotspot(self):
        # One node does all the talking in a 100-node network: the
        # transmitters-only ratio says "balanced", the network-wide
        # ratio says "hotspot".
        m = MetricsCollector()
        m.tx_count[0] = 10
        assert m.load_imbalance() == 1.0
        assert m.load_imbalance(n_nodes=100) == pytest.approx(100.0)

    def test_n_nodes_smaller_than_transmitters_is_clamped(self):
        m = MetricsCollector()
        m.tx_count.update({1: 1, 2: 1})
        assert m.load_imbalance(n_nodes=1) == m.load_imbalance()


class TestSummaryAndReset:
    def test_summary_on_empty_collector(self):
        summary = MetricsCollector().summary()
        assert summary["messages"] == 0
        assert summary["bytes"] == 0
        assert summary["max_node_load"] == 0
        assert summary["load_imbalance"] == 1.0
        assert summary["dropped"] == 0

    def test_summary_includes_categories(self):
        m = MetricsCollector()
        m.category_tx["storage"] = 1
        summary = m.summary()
        assert summary["msgs[storage]"] == 1

    def test_reset_clears_everything(self):
        net = pinged(3)
        frame(net, 0, 1, 1)
        net.radio.link_down(1, 2)
        frame(net, 1, 2, 1)
        m = net.metrics
        m.reset()
        assert m.total_messages == 0
        assert m.total_bytes == 0
        assert m.total_energy == 0
        assert m.dropped == 0
        assert not m.category_tx and not m.category_bytes

    def test_reset_clears_category_maps_in_place(self):
        # Defensive reset: aliases taken before reset() must observe it.
        net = pinged()
        m = net.metrics
        category_alias = m.category_tx
        tx_alias = m.tx_count
        frame(net, 0, 1, 1, "storage")
        m.reset()
        assert category_alias == {}
        assert tx_alias == {}
        frame(net, 1, 0, 1, "join")
        assert category_alias == {"join": 1}
