"""Tests for topologies, routing, and geographic hashing."""

import random

import networkx as nx
import pytest

from repro.core.errors import NetworkError
from repro.net.ght import GeographicHash, stable_hash
from repro.net.messages import Message
from repro.net.network import GridNetwork, RandomNetwork
from repro.net.node import RoutedEnvelope
from repro.net.routing import GeoRouter, Router
from repro.net.shard import WorkloadSpec, run
from repro.net.topology import (
    GridTopology,
    RandomGeometricTopology,
    Topology,
    topology_from_edges,
)
from tests.graphs import nx_graph


class TestGridTopology:
    def test_size(self):
        assert len(GridTopology(4, 3)) == 12

    def test_square_default(self):
        grid = GridTopology(5)
        assert grid.m == grid.n == 5

    def test_four_neighborhood(self):
        grid = GridTopology(3)
        center = grid.node_at(1, 1)
        assert len(grid.neighbors(center)) == 4
        corner = grid.node_at(0, 0)
        assert len(grid.neighbors(corner)) == 2

    def test_coords_roundtrip(self):
        grid = GridTopology(7, 4)
        for node in grid.node_ids:
            x, y = grid.coords(node)
            assert grid.node_at(x, y) == node

    def test_row_and_column(self):
        grid = GridTopology(3, 4)
        assert len(grid.row(2)) == 3
        assert len(grid.column(1)) == 4
        assert all(grid.coords(n)[1] == 2 for n in grid.row(2))
        assert all(grid.coords(n)[0] == 1 for n in grid.column(1))

    def test_row_column_intersect(self):
        grid = GridTopology(5)
        for y in range(5):
            for x in range(5):
                assert set(grid.row(y)) & set(grid.column(x))

    def test_out_of_bounds(self):
        with pytest.raises(NetworkError):
            GridTopology(3).node_at(3, 0)

    def test_diameter(self):
        assert GridTopology(4).diameter == 6


class TestRandomGeometric:
    def test_connected(self):
        topo = RandomGeometricTopology(30, radius=3.0, seed=1)
        assert nx.is_connected(nx_graph(topo))

    def test_edges_respect_radius(self):
        topo = RandomGeometricTopology(25, radius=2.5, seed=2)
        for a, b in nx_graph(topo).edges:
            assert topo.euclidean(a, b) <= 2.5

    def test_deterministic(self):
        t1 = RandomGeometricTopology(20, radius=3.0, seed=5)
        t2 = RandomGeometricTopology(20, radius=3.0, seed=5)
        assert t1.adjacency == t2.adjacency


class TestTopologyValidation:
    def test_disconnected_rejected(self):
        with pytest.raises(NetworkError):
            Topology({0: (1,), 1: (0,), 2: (3,), 3: (2,)},
                     {i: (float(i), 0.0) for i in range(4)})

    def test_from_edges_synthesizes_positions(self):
        topo = topology_from_edges([(0, 1), (1, 2)])
        assert len(topo.positions) == 3

    def test_nearest_node(self):
        grid = GridTopology(3)
        assert grid.nearest_node((0.1, 0.1)) == grid.node_at(0, 0)
        assert grid.nearest_node((2.4, 1.9)) == grid.node_at(2, 2)


class TestRouter:
    def test_path_is_shortest(self):
        grid = GridTopology(5)
        router = Router(grid)
        a, b = grid.node_at(0, 0), grid.node_at(4, 4)
        assert router.hop_distance(a, b) == 8
        path = router.path(a, b)
        assert path[0] == a and path[-1] == b
        assert len(path) == 9
        for u, v in zip(path, path[1:]):
            assert grid.are_neighbors(u, v)

    def test_self_route_rejected(self):
        router = Router(GridTopology(3))
        with pytest.raises(NetworkError):
            router.next_hop(0, 0)

    def test_distance_zero_to_self(self):
        assert Router(GridTopology(3)).hop_distance(4, 4) == 0


def _shuffled_graph(n, extra_edges, rng):
    """A connected graph whose adjacency (insertion) order is random:
    a random spanning tree plus ``extra_edges`` chords, edges and
    endpoints shuffled — sorted-neighbor order would differ from it."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    edges = {tuple(rng.sample((nodes[i], rng.choice(nodes[:i])), 2))
             for i in range(1, n)}
    while len(edges) < n - 1 + extra_edges:
        edges.add(tuple(rng.sample(range(n), 2)))
    edges = sorted(edges)
    rng.shuffle(edges)
    return topology_from_edges(edges, {i: (float(i), 0.0) for i in range(n)})


def _oracle(router, dst):
    """The eager table the demand-driven one must reproduce: the full
    ``nx.bfs_predecessors`` map over the live view of the graph."""
    graph = nx_graph(router.topology)
    dead_nodes, dead_edges = router._excluded_nodes, router._excluded_edges
    if dst in dead_nodes:
        return {}
    if router.degraded:
        graph = nx.subgraph_view(
            graph,
            filter_node=lambda n: n not in dead_nodes,
            filter_edge=lambda a, b: (min(a, b), max(a, b)) not in dead_edges,
        )
    return dict(nx.bfs_predecessors(graph, dst))


def _check_lookup(router, node, dst):
    """One lookup against the oracle; True when there was no route."""
    expected = _oracle(router, dst).get(node)
    if node == dst or expected is None:
        with pytest.raises(NetworkError):
            router.next_hop(node, dst)
    else:
        assert router.next_hop(node, dst) == expected
    return expected is None


TOPOLOGIES = {
    "shuffled-sparse": lambda: _shuffled_graph(90, 25, random.Random(1)),
    "shuffled-dense": lambda: _shuffled_graph(60, 200, random.Random(2)),
    "grid": lambda: GridTopology(9, 7),
    "geometric": lambda: RandomGeometricTopology(
        150, radius=1.8, side=150 ** 0.5, seed=4),
}


@pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
class TestDemandDrivenTables:
    """Differential: every answer of the resumable search equals the
    entry of the eager per-destination table it replaced."""

    @pytest.mark.parametrize("seed", range(3))
    def test_near_before_far_resumes_the_cursor(self, kind, seed):
        topology = TOPOLOGIES[kind]()
        rng = random.Random(seed)
        router = Router(topology)
        depth = {
            dst: nx.single_source_shortest_path_length(nx.Graph(topology.adjacency), dst)
            for dst in rng.sample(topology.node_ids, 6)
        }
        pairs = [(node, dst) for dst in depth for node in topology.node_ids]
        rng.shuffle(pairs)
        pairs.sort(key=lambda pair: depth[pair[1]][pair[0]])
        resumed = 0
        for node, dst in pairs:
            cursor = router._tables[dst][2] if dst in router._tables else 0
            _check_lookup(router, node, dst)
            resumed += 0 < cursor < router._tables[dst][2]
        assert resumed  # lookups continued half-expanded searches

    @pytest.mark.parametrize("seed", range(3))
    def test_random_ask_order(self, kind, seed):
        topology = TOPOLOGIES[kind]()
        rng = random.Random(100 + seed)
        router = Router(topology)
        for _ in range(400):
            _check_lookup(router, rng.choice(topology.node_ids),
                          rng.choice(topology.node_ids))

    @pytest.mark.parametrize("seed", range(3))
    def test_liveness_changes_interleaved(self, kind, seed):
        """exclude/restore of nodes and edges between lookups: answers
        equal the oracle over ``nx.subgraph_view``; unreachable and
        excluded endpoints raise exactly where the eager tables did."""
        topology = TOPOLOGIES[kind]()
        rng = random.Random(200 + seed)
        router = Router(topology)
        edges = list(nx_graph(topology).edges)
        raised = 0
        for step in range(300):
            if step % 5 == 0:
                op = rng.choice((router.exclude, router.restore))
                op(rng.choice(topology.node_ids[:12]))
                op = rng.choice((router.exclude_edge, router.restore_edge))
                a, b = rng.choice(edges[:20])
                op(*rng.choice(((a, b), (b, a))))
            node, dst = rng.sample(topology.node_ids[:40], 2)
            raised += _check_lookup(router, node, dst)
        assert raised  # dead endpoints and cut-off nodes were asked
        for node in list(router._excluded_nodes):
            router.restore(node)
        for edge in list(router._excluded_edges):
            router.restore_edge(*edge)
        assert not router.degraded
        _check_lookup(router, topology.node_ids[0], topology.node_ids[-1])


class TestGeoRouter:
    def test_greedy_path_is_what_envelopes_follow(self):
        topology = TOPOLOGIES["geometric"]()
        router = GeoRouter(topology)
        rng = random.Random(5)
        voids = 0
        for _ in range(60):
            a, b = rng.sample(topology.node_ids, 2)
            envelope = RoutedEnvelope(Message("ping"), dst=b)
            walked = [a]
            while walked[-1] != b:
                walked.append(router.envelope_hop(walked[-1], envelope))
            assert walked == router.path(a, b)
            assert router.hop_distance(a, b) == len(walked) - 1
            voids += envelope.geo_fallback
        assert voids  # the BFS escape hatch was exercised too

    def test_degraded_view_is_respected(self):
        """Greedy forwarding knows nothing of dead nodes: under a
        degraded view every entry point answers from the live table."""
        router = GeoRouter(GridTopology(5))
        assert router.path(0, 4) == [0, 1, 2, 3, 4]
        router.exclude(1)
        envelope = RoutedEnvelope(Message("ping"), dst=4)
        assert router.envelope_hop(0, envelope) == router.next_hop(0, 4) == 5
        path = router.path(0, 4)
        assert 1 not in path and path[0] == 0 and path[-1] == 4
        assert router.hop_distance(0, 4) == len(path) - 1 == 6
        router.restore(1)
        router.exclude_edge(1, 2)
        assert router.path(0, 4)[:3] != [0, 1, 2]
        with pytest.raises(NetworkError):
            router.envelope_hop(4, envelope)


def e19_round_spec(routing, n=300, tuples=3, seed=1):
    """The E19 round (two-stream join over a random deployment,
    r = 1.8, side = sqrt(n), virtual-grid regions) as a WorkloadSpec."""
    rng = random.Random(seed + 1)
    publishes = [
        (0.0, rng.randrange(n), stream, (rng.randrange(3), f"{stream}{i}"))
        for i in range(tuples) for stream in ("r", "s")
    ]
    return WorkloadSpec(
        topology={"kind": "random", "n": n, "radius": 1.8, "side": n ** 0.5,
                  "seed": seed},
        program="j(K, A, B) :- r(K, A), s(K, B).",
        publishes=publishes, outputs=("j",), seed=seed,
        strategy="virtual-grid", routing=routing,
    )


class TestRoutingIdentity:
    """Values recorded with the eager ``nx.bfs_predecessors`` tables
    (commit 041bdc5): routing is a host-side model, so a change to it
    must leave every frame of a round where it was."""

    @pytest.mark.parametrize("routing, frames, size, load, events", [
        ("bfs", 357, 9904, 9, 369),
        ("geo", 372, 10324, 10, 384),
    ])
    def test_e19_round_is_frame_identical(self, routing, frames, size,
                                          load, events):
        report = run(e19_round_spec(routing), shards=None)
        fingerprint = report.fingerprint()
        assert fingerprint["messages"] == frames
        assert fingerprint["bytes"] == size
        assert report.metrics.max_node_load == load
        assert report.events_processed == events
        assert fingerprint["rows"]["j"] == (
            "(2, 'r1', 's2')", "(2, 'r2', 's2')",
        )


class TestGeographicHash:
    def test_stable_across_instances(self):
        grid = GridTopology(6)
        h1, h2 = GeographicHash(grid), GeographicHash(grid)
        assert h1.node_for_key("foo/bar") == h2.node_for_key("foo/bar")

    def test_spreads_keys(self):
        grid = GridTopology(6)
        ght = GeographicHash(grid)
        homes = {ght.node_for_key(f"key{i}") for i in range(100)}
        assert len(homes) > 10  # keys land on many distinct nodes

    def test_stable_hash_deterministic(self):
        assert stable_hash("x") == stable_hash("x")
        assert stable_hash("x") != stable_hash("y")

    def test_node_for_fact(self):
        from repro.core.terms import Constant

        grid = GridTopology(4)
        ght = GeographicHash(grid)
        args = (Constant(1), Constant("a"))
        assert ght.node_for_fact("p", args) == ght.node_for_fact("p", args)
        assert isinstance(ght.node_for_fact("p", args), int)

    def test_equal_facts_spell_one_key(self):
        """1, 1.0 and True are one term: one key, one home, whichever
        spelling a fresh hash meets first.  A key without one is the
        spelling it always had, so no home moves."""
        from repro.core.terms import Constant, FunctionTerm, to_term

        f = lambda v: FunctionTerm("f", [Constant(v), Constant("a")])
        for spellings in ([1, 1.0, True], [f(1), f(1.0), f(True)]):
            for first in range(3):
                ght = GeographicHash(GridTopology(4))
                order = spellings[first:] + spellings[:first]
                keys = {ght.key_for_fact("p", (Constant(0), to_term(v))) for v in order}
                assert keys == {f"p/(0, {to_term(spellings[0])!r})"}
        ght = GeographicHash(GridTopology(4))
        for args in [(Constant(1.5), Constant("a")), (Constant((1.0, 2)),), ()]:
            assert ght.key_for_fact("p", args) == f"p/{args!r}"
        part = ght.partition("alice")
        assert part.key_for_fact("p", (Constant(2.0),)) == "alice:p/(2,)"


class TestNetworks:
    def test_grid_network_nodes(self):
        net = GridNetwork(4)
        assert len(net) == 16
        assert net.node(5).id == 5

    def test_clock_skew_bounded(self):
        net = GridNetwork(4, clock_skew=0.2)
        skews = [n.clock.skew for n in net.nodes.values()]
        assert all(-0.1 <= s <= 0.1 for s in skews)
        assert any(s != 0 for s in skews)

    def test_random_network(self):
        net = RandomNetwork(20, radius=3.0, seed=1)
        assert len(net) >= 15

    def test_unknown_node(self):
        with pytest.raises(NetworkError):
            GridNetwork(2).node(99)
