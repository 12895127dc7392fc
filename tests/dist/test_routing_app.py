"""Tests for the declarative routing application."""

import networkx as nx
import pytest

from repro.core.errors import PlanError
from repro.dist.routing_app import RoutingTable, build_routing, routing_program
from repro.net.network import GridNetwork, RandomNetwork


def converge(net, bound=None):
    engine = build_routing(net, bound)
    net.run_all(max_events=5_000_000)
    return RoutingTable(engine)


class TestRoutingCorrectness:
    def test_grid_all_pairs_shortest(self):
        net = GridNetwork(4, seed=3)
        table = converge(net)
        for src in net.topology.node_ids:
            lengths = nx.single_source_shortest_path_length(
                nx.Graph(net.topology.adjacency), src
            )
            for dst, d in lengths.items():
                if src != dst:
                    assert table.cost(src, dst) == d

    def test_random_topology(self):
        net = RandomNetwork(12, radius=4.0, seed=8)
        table = converge(net)
        src = net.topology.node_ids[0]
        lengths = nx.single_source_shortest_path_length(nx.Graph(net.topology.adjacency), src)
        for dst, d in lengths.items():
            if src != dst:
                assert table.cost(src, dst) == d

    def test_full_coverage(self):
        net = GridNetwork(3, seed=4)
        assert converge(net).coverage() == 1.0

    def test_paths_are_valid(self):
        net = GridNetwork(4, seed=5)
        table = converge(net)
        path = table.path(0, 15)
        assert path[0] == 0 and path[-1] == 15
        for u, v in zip(path, path[1:]):
            assert net.topology.are_neighbors(u, v)
        assert len(path) - 1 == table.cost(0, 15)

    def test_next_hop_decreases_cost(self):
        net = GridNetwork(4, seed=6)
        table = converge(net)
        for (src, dst), (cost, hop) in table.best.items():
            if src == dst:
                continue
            if hop == dst:
                assert cost == 1
            else:
                assert table.cost(hop, dst) == cost - 1


class TestBound:
    def test_bound_limits_reach(self):
        net = GridNetwork(5, 1, seed=7)  # a line of 5 nodes
        table = converge(net, bound=2)
        assert table.cost(0, 2) == 2
        assert table.cost(0, 4) is None  # beyond the metric bound
        assert table.coverage() < 1.0

    def test_invalid_bound(self):
        net = GridNetwork(3)
        with pytest.raises(PlanError):
            build_routing(net, bound=0)

    def test_program_text_embeds_bound(self):
        assert "<= 4" in routing_program(4)
