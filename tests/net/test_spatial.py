"""Differential tests for the uniform-grid spatial index.

The index is a pure accelerator: every query it answers must be
*bit-identical* to the brute-force scan it replaced (same distance
comparisons, same lowest-id tie-breaks).  These tests pit it against
linear/quadratic oracles over hypothesis-generated deployments, and pin
the construction/fallback semantics of RandomGeometricTopology.
"""

import math
import random

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net import topology as topology_module
from repro.net.ght import GeographicHash
from repro.net.spatial import GridIndex, disk_pairs, heuristic_cell
from repro.net.topology import (
    GridTopology,
    RandomGeometricTopology,
    Topology,
    topology_from_edges,
    unit_disk_edges_brute,
)
from tests.graphs import nx_graph


def draw(monkeypatch, max_tries=None, **args):
    """``RandomGeometricTopology(**args)``, drawing at most ``max_tries``
    deployments when given (``topology.MAX_TRIES``)."""
    if max_tries is not None:
        monkeypatch.setattr(topology_module, "MAX_TRIES", max_tries)
    return RandomGeometricTopology(**args)


def disk_edges(positions, radius):
    """The edges :func:`disk_pairs` finds, as sorted id pairs."""
    ids, first, second = disk_pairs(positions, radius)
    return [(ids[i], ids[j]) for i, j in zip(first.tolist(), second.tolist())]


def random_positions(seed, n, side=10.0):
    rng = random.Random(seed)
    return {i: (rng.uniform(0, side), rng.uniform(0, side)) for i in range(n)}


def brute_nearest(positions, point):
    return min(
        positions,
        key=lambda i: (math.hypot(positions[i][0] - point[0],
                                  positions[i][1] - point[1]), i),
    )


def brute_within(positions, point, radius):
    return sorted(
        i for i, (x, y) in positions.items()
        if math.hypot(x - point[0], y - point[1]) <= radius
    )


class TestGridIndexDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 60),
        radius=st.floats(0.3, 6.0),
    )
    def test_disk_edges_match_brute(self, seed, n, radius):
        positions = random_positions(seed, n)
        assert disk_edges(positions, radius) == unit_disk_edges_brute(
            positions, radius
        )

    @settings(max_examples=40, deadline=None)
    @given(
        spacing=st.sampled_from([0.1, 0.3, 0.7, 1.0, 1.8]),
        a=st.integers(0, 3),
        b=st.integers(1, 3),
    )
    def test_disk_edges_knife_edge_lattice(self, spacing, a, b):
        """Points on a lattice, ``radius`` one of its own distances:
        many pairs lie exactly ``radius`` apart, or a rounding away."""
        positions = {
            k: ((k % 7) * spacing, (k // 7) * spacing) for k in range(49)
        }
        radius = math.hypot(a * spacing, b * spacing)
        assert disk_edges(positions, radius) == unit_disk_edges_brute(
            positions, radius
        )

    @settings(max_examples=150, deadline=None)
    @given(
        spacing=st.sampled_from([0.1, 0.3, 0.7, 1.0, 1.8]),
        a=st.integers(0, 3),
        b=st.integers(1, 3),
        cell_scale=st.sampled_from([0.5, 1.0, 1.7]),
        query=st.integers(0, 48),
        nudge=st.sampled_from([0.0, -3.1245220031619057e-35, 3e-35, -1e-17, 1e-16]),
        dropped=st.sets(st.integers(0, 48), max_size=44),
        k=st.integers(1, 5),
    )
    @example(spacing=1.0, a=0, b=1, cell_scale=1.0, query=0,
             nudge=-3.1245220031619057e-35, dropped=set(), k=2)
    def test_queries_on_the_knife_edge_lattice(self, spacing, a, b, cell_scale,
                                               query, nudge, dropped, k):
        """``within``, ``nearest`` and ``nearest_k`` against the scans on
        the lattice above, from a lattice point nudged a rounding off:
        nodes lie exactly ``radius`` (or a ring bound) away, and the
        nudge can put the query a cell below its point."""
        lattice = {k: ((k % 7) * spacing, (k // 7) * spacing) for k in range(49)}
        positions = {n: p for n, p in lattice.items() if n not in dropped}
        radius = math.hypot(a * spacing, b * spacing)
        index = GridIndex(positions, radius * cell_scale)
        x, y = lattice[query]
        point = (x + nudge, y + nudge)
        assert index.within(point, radius) == brute_within(positions, point, radius)
        ranked = sorted(positions, key=lambda n: (
            math.hypot(positions[n][0] - point[0], positions[n][1] - point[1]), n))
        assert index.nearest(point) == ranked[0]
        assert index.nearest_k(point, k) == ranked[:k]

    def test_within_a_radius_two_cells_off(self):
        """The query's coordinate rounds into the cell below, the node
        exactly ``radius`` away two cells up."""
        index = GridIndex({0: (-3.1245220031619057e-35, 0.0), 1: (1.0, 0.0)}, 1.0)
        assert index.within((-3.1245220031619057e-35, 0.0), 1.0) == [0, 1]

    @settings(max_examples=40, deadline=None)
    @given(
        radius=st.floats(0.05, 50.0),
        center=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
        offsets=st.lists(
            st.tuples(st.floats(0.0, 2 * math.pi), st.floats(-1e-10, 1e-10)),
            min_size=1, max_size=12,
        ),
    )
    def test_disk_edges_inside_the_band(self, radius, center, offsets):
        """Pairs whose squared distance falls within the 1e-9 band of
        ``radius**2``, where the hypot of the scan decides."""
        cx, cy = center
        positions = {0: center}
        for k, (angle, stretch) in enumerate(offsets, start=1):
            d = radius * (1 + stretch)
            positions[k] = (cx + d * math.cos(angle), cy + d * math.sin(angle))
        squared = [(x - cx) ** 2 + (y - cy) ** 2 for x, y in positions.values()]
        assert any(abs(d2 - radius ** 2) <= 1e-9 * radius ** 2 for d2 in squared[1:])
        assert disk_edges(positions, radius) == unit_disk_edges_brute(
            positions, radius
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 60),
        cell=st.floats(0.4, 4.0),
        qx=st.floats(-2.0, 12.0),
        qy=st.floats(-2.0, 12.0),
    )
    def test_nearest_matches_linear_scan(self, seed, n, cell, qx, qy):
        positions = random_positions(seed, n)
        index = GridIndex(positions, cell)
        assert index.nearest((qx, qy)) == brute_nearest(positions, (qx, qy))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 60),
        cell=st.floats(0.4, 4.0),
        qx=st.floats(-2.0, 12.0),
        qy=st.floats(-2.0, 12.0),
        radius=st.floats(0.0, 8.0),
    )
    def test_within_matches_linear_scan(self, seed, n, cell, qx, qy, radius):
        positions = random_positions(seed, n)
        index = GridIndex(positions, cell)
        assert index.within((qx, qy), radius) == brute_within(
            positions, (qx, qy), radius
        )

    def test_nearest_tie_breaks_to_lowest_id(self):
        # Two nodes equidistant from the query: the scan returned the
        # lowest id, so the index must too.
        positions = {7: (1.0, 0.0), 3: (-1.0, 0.0), 9: (0.0, 5.0)}
        assert GridIndex(positions, 1.0).nearest((0.0, 0.0)) == 3

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 60),
        cell=st.floats(0.4, 4.0),
        qx=st.floats(-2.0, 12.0),
        qy=st.floats(-2.0, 12.0),
        k=st.integers(1, 8),
    )
    def test_nearest_k_matches_brute_sort(self, seed, n, cell, qx, qy, k):
        # GHT replica sets hang off nearest_k: it must return exactly
        # the first min(k, n) nodes of the full (distance, id) sort.
        positions = random_positions(seed, n)
        index = GridIndex(positions, cell)
        brute = sorted(
            positions,
            key=lambda i: (math.dist(positions[i], (qx, qy)), i),
        )[:k]
        assert index.nearest_k((qx, qy), k) == brute

    @pytest.mark.parametrize("query", [
        (-40.0, 55.0), (9.5, 0.2), (0.1, 9.9), (4.0, 4.0), (3.0, 200.0),
        (9.0, 9.0),
    ])
    def test_irregular_occupancy(self, query):
        # An L of occupied cells: the bounding box's far corner and its
        # middle are empty, and queries lie in the empty corner, in the
        # hollow and far outside the box.  Ring expansion stops at the
        # box, which may only over-estimate the farthest occupied cell.
        positions = {i: (float(i), 0.0) for i in range(10)}
        positions.update({10 + i: (0.0, float(i + 1)) for i in range(9)})
        positions[30] = (0.0, 1.0)  # a distance tie with node 10
        for cell in (0.7, 1.0, 3.0):
            index = GridIndex(positions, cell)
            brute = sorted(
                positions, key=lambda i: (math.dist(positions[i], query), i)
            )
            assert index.nearest(query) == brute[0]
            assert index.nearest_k(query, 5) == brute[:5]
            assert index.nearest_k(query, 40) == brute

    def test_nearest_k_validates_inputs(self):
        index = GridIndex({0: (0.0, 0.0)}, 1.0)
        with pytest.raises(ValueError):
            index.nearest_k((0.0, 0.0), 0)
        with pytest.raises(ValueError):
            GridIndex({}, 1.0).nearest_k((0.0, 0.0), 1)

    def test_nearest_k_first_element_matches_nearest(self):
        positions = random_positions(5, 30)
        index = GridIndex(positions, 1.0)
        for q in [(0.0, 0.0), (5.0, 5.0), (11.0, -1.0)]:
            assert index.nearest_k(q, 3)[0] == index.nearest(q)

    def test_heuristic_cell_positive(self):
        assert heuristic_cell({0: (0.0, 0.0)}) > 0
        assert heuristic_cell(random_positions(1, 50)) > 0


class TestTopologyQueriesDifferential:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500), qx=st.floats(0, 10), qy=st.floats(0, 10))
    def test_topology_nearest_node(self, seed, qx, qy):
        topo = RandomGeometricTopology(30, radius=4.0, seed=seed)
        assert topo.nearest_node((qx, qy)) == brute_nearest(
            topo.positions, (qx, qy)
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500), radius=st.floats(0.5, 6.0))
    def test_topology_within_radius(self, seed, radius):
        topo = RandomGeometricTopology(30, radius=4.0, seed=seed)
        point = topo.position(seed % len(topo))
        assert topo.within_radius(point, radius) == brute_within(
            topo.positions, point, radius
        )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 300))
    def test_ght_placements_match_brute_nearest(self, seed):
        topo = RandomGeometricTopology(25, radius=4.5, seed=seed)
        ght = GeographicHash(topo)
        for key in ("temp", "humidity", "j/(3, 'a')", f"k{seed}"):
            home = ght.node_for_key(key)
            expected = brute_nearest(topo.positions, ght.position_for(key))
            assert home == expected
            # Memoized answer is stable.
            assert ght.node_for_key(key) == home

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 300))
    def test_diameter_matches_networkx(self, seed):
        topo = RandomGeometricTopology(25, radius=4.0, seed=seed)
        assert topo.diameter == nx.diameter(nx_graph(topo))

    def test_grid_diameter_analytic(self):
        for m, n in [(1, 1), (1, 6), (4, 4), (3, 7)]:
            grid = GridTopology(m, n)
            assert grid.diameter == nx.diameter(nx_graph(grid))


class TestExactDiameter:
    """The iFUB sweep over the cached adjacency against ``nx.diameter``,
    on graphs where its level loop really runs (the cut does not close
    right after the three sweeps)."""

    @staticmethod
    def _sweeps(monkeypatch, topo):
        """``topo.diameter`` and the number of BFS sweeps it ran: the
        three level-by-level sweeps plus every source handed to the
        bit-parallel eccentricity (more than three: the level loop
        ran)."""
        calls = []
        bfs = topology_module.bfs_levels
        eccentricity = topology_module._eccentricity

        def counting(adjacency, source):
            calls.append(source)
            return bfs(adjacency, source)

        def counting_batch(csr, sources):
            assert 0 < len(sources) <= 64
            calls.extend(sources)
            return eccentricity(csr, sources)

        monkeypatch.setattr(topology_module, "bfs_levels", counting)
        monkeypatch.setattr(topology_module, "_eccentricity", counting_batch)
        return topo.diameter, len(calls)

    @pytest.mark.parametrize("n", [150, 400])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_sparse_unit_disk(self, monkeypatch, n, seed):
        topo = RandomGeometricTopology(n, radius=1.8, seed=seed)
        assert len(topo) == n  # the draw is used as it is
        diameter, sweeps = self._sweeps(monkeypatch, topo)
        assert diameter == nx.diameter(nx_graph(topo))
        assert sweeps > 3  # the level loop ran

    def test_giant_component_fallback(self, monkeypatch):
        topo = draw(monkeypatch, n=400, radius=0.9, seed=0, max_tries=1)
        assert len(topo) < 400
        diameter, sweeps = self._sweeps(monkeypatch, topo)
        assert diameter == nx.diameter(nx_graph(topo))
        assert sweeps > 3

    @pytest.mark.parametrize("graph", [
        nx.path_graph(1), nx.path_graph(2), nx.path_graph(9),
        nx.star_graph(6), nx.cycle_graph(7),
    ], ids=["single", "edge", "path", "star", "cycle"])
    def test_small_shapes(self, graph):
        positions = {n: (float(n), 0.0) for n in graph}
        adjacency = {n: tuple(graph.adj[n]) for n in graph}
        assert Topology(adjacency, positions).diameter == nx.diameter(graph)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_non_contiguous_ids(self, seed):
        base = RandomGeometricTopology(120, radius=2.0, seed=seed)
        rng = random.Random(seed)
        ids = rng.sample(range(10_000), len(base))
        edges = [(ids[a], ids[b]) for a, b in nx_graph(base).edges]
        rng.shuffle(edges)
        topo = topology_from_edges(
            edges, {ids[n]: p for n, p in base.positions.items()}
        )
        assert topo.diameter == nx.diameter(nx_graph(topo))
        assert topo.diameter == base.diameter


class TestKeptSpatialIndex:
    """A random deployment draws its edges without an index (numpy
    pairs, :func:`repro.net.spatial.disk_pairs`).  One the grid method
    uses as drawn builds its index with the construction; the
    giant-component fallback and the brute-force edge method build one
    on first use.  Either way the answers are those of a fresh index
    over the topology's positions."""

    @staticmethod
    def _built(monkeypatch):
        built = []

        class Recording(GridIndex):
            def __init__(self, positions, cell):
                super().__init__(positions, cell)
                built.append(self)

        monkeypatch.setattr(topology_module, "GridIndex", Recording)
        return built

    def test_grid_draw_keeps_its_construction_index(self, monkeypatch):
        built = self._built(monkeypatch)
        topo = RandomGeometricTopology(120, radius=2.0, seed=3)
        assert len(topo) == 120
        assert topo.spatial is built[-1]
        assert len(built) == 1  # nothing was rebuilt

    def test_fallback_builds_its_own_index(self, monkeypatch):
        built = self._built(monkeypatch)
        topo = draw(monkeypatch, n=300, radius=0.8, seed=0, max_tries=2)
        assert len(topo) < 300
        assert built == []  # no attempt built one
        assert topo.spatial is built[0] and len(built) == 1

    def test_brute_edges_build_the_index_lazily(self, monkeypatch):
        built = self._built(monkeypatch)
        topo = RandomGeometricTopology(80, radius=3.0, seed=1,
                                       edge_method="brute")
        assert built == []
        assert topo.spatial is built[0]

    @pytest.mark.parametrize("args", [
        dict(n=120, radius=2.0, seed=3),
        dict(n=300, radius=0.8, seed=0, max_tries=2),
        dict(n=80, radius=3.0, seed=1, edge_method="brute"),
    ], ids=["kept", "fallback", "brute"])
    def test_answers_equal_a_fresh_index(self, monkeypatch, args):
        topo = draw(monkeypatch, **args)
        fresh = GridIndex(topo.positions, topo._spatial_cell())
        index = topo.spatial
        assert index.positions == topo.positions
        assert index.cell_items() == fresh.cell_items()
        rng = random.Random(7)
        for _ in range(40):
            point = (rng.uniform(-1, 11), rng.uniform(-1, 11))
            assert index.nearest(point) == fresh.nearest(point)
            assert index.nearest_k(point, 4) == fresh.nearest_k(point, 4)
            radius = rng.uniform(0.2, 3.0)
            assert index.within(point, radius) == fresh.within(point, radius)


class TestRandomGeometricConstruction:
    def test_grid_and_brute_methods_build_identical_topologies(self):
        for seed in (0, 3, 11):
            a = RandomGeometricTopology(40, radius=3.0, seed=seed,
                                        edge_method="grid")
            b = RandomGeometricTopology(40, radius=3.0, seed=seed,
                                        edge_method="brute")
            assert a.positions == b.positions
            assert list(a.adjacency.items()) == list(b.adjacency.items())

    def test_unknown_edge_method_rejected(self):
        from repro.core.errors import NetworkError
        with pytest.raises(NetworkError):
            RandomGeometricTopology(10, radius=3.0, edge_method="quantum")

    def test_giant_component_fallback_is_connected_and_relabeled(
            self, monkeypatch):
        # Radius too small to ever connect 30 nodes on a 10x10 field:
        # every attempt fails and the giant component of the *last*
        # attempt is taken, relabeled to contiguous ids.
        topo = draw(monkeypatch, n=30, radius=0.8, seed=2, max_tries=3)
        assert len(topo) < 30
        assert nx.is_connected(nx_graph(topo))
        assert sorted(topo.adjacency) == list(range(len(topo)))
        assert set(topo.positions) == set(topo.adjacency)

    def test_retry_attempts_are_seeded_deterministically(self, monkeypatch):
        # Same constructor args => same topology, even through the
        # retry path (each attempt k reseeds from f"{seed}:{k}").
        a = draw(monkeypatch, n=30, radius=0.8, seed=2, max_tries=3)
        b = draw(monkeypatch, n=30, radius=0.8, seed=2, max_tries=3)
        assert a.positions == b.positions
        assert list(a.adjacency.items()) == list(b.adjacency.items())

    @pytest.mark.parametrize("edge_method", ["grid", "brute"])
    def test_rejected_draws_build_no_edge_list(self, monkeypatch, edge_method):
        # seed 9 connects on the eighth draw: connectivity is decided on
        # the draws' numpy pairs, and only the kept draw gets its edge
        # tuples and adjacency rows.
        built = []
        adjacency = topology_module._adjacency

        def recording(nodes, edges):
            built.append(1)
            return adjacency(nodes, edges)

        monkeypatch.setattr(topology_module, "_adjacency", recording)
        topo = RandomGeometricTopology(60, radius=2.0, seed=9,
                                       edge_method=edge_method)
        assert len(topo) == 60 and built == [1]

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(0, 30),
           edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                          max_size=60))
    def test_spans_is_a_search_from_node_zero(self, n, edges):
        import numpy as np

        pairs = sorted({(min(a, b), max(a, b)) for a, b in edges
                        if a != b and max(a, b) < n})
        first, second = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        rows = topology_module._adjacency(range(n), pairs)
        connected = n < 2 or len(topology_module.bfs_levels(rows, 0)[1]) == n
        assert topology_module._spans(n, first, second) == connected


def _networkx_construction(n, radius, side=10.0, seed=0, max_tries=25):
    """A random deployment built as networkx graphs, draw by draw: the
    construction the adjacency must reproduce, row order included."""
    for attempt in range(max_tries):
        rng = random.Random(seed) if attempt == 0 else random.Random(f"{seed}:{attempt}")
        pts = {i: (rng.uniform(0, side), rng.uniform(0, side)) for i in range(n)}
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(unit_disk_edges_brute(pts, radius))
        if nx.is_connected(graph):
            return graph
    component = max(nx.connected_components(graph), key=len)
    mapping = {old: new for new, old in enumerate(sorted(component))}
    return nx.relabel_nodes(graph.subgraph(component).copy(), mapping)


def _rows(graph):
    return [(node, tuple(nbrs)) for node, nbrs in graph.adj.items()]


class TestAdjacencyOrder:
    """``topology.adjacency`` lists every node, and every node's
    neighbors, in the order the networkx construction gives
    ``graph.adj``: routing searches and the diameter's sweeps discover
    nodes in that order."""

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 6), (6, 1), (4, 4), (3, 7), (9, 5)])
    def test_grid(self, m, n):
        graph = nx.Graph()
        for y in range(n):
            for x in range(m):
                node = y * m + x
                graph.add_node(node)
                if x > 0:
                    graph.add_edge(node, node - 1)
                if y > 0:
                    graph.add_edge(node, node - m)
        topo = GridTopology(m, n)
        assert list(topo.adjacency.items()) == _rows(graph)

    @pytest.mark.parametrize("args", [
        dict(n=60, radius=2.0, seed=0),   # used as drawn
        dict(n=60, radius=2.0, seed=4),   # connected on the third draw
        dict(n=60, radius=2.0, seed=9),   # connected on the eighth draw
        dict(n=30, radius=0.8, seed=2, max_tries=3),  # giant component
        dict(n=60, radius=2.0, seed=4, max_tries=2),  # capped before the draw that connects
        dict(n=80, radius=3.0, seed=1),
    ], ids=["drawn", "redrawn", "redrawn-late", "fallback", "capped", "dense"])
    @pytest.mark.parametrize("edge_method", ["grid", "brute"])
    def test_random(self, monkeypatch, args, edge_method):
        graph = _networkx_construction(**args)
        topo = draw(monkeypatch, **args, edge_method=edge_method)
        assert list(topo.adjacency.items()) == _rows(graph)

    def test_from_edges(self):
        edges = [(5, 2), (2, 9), (9, 5), (7, 2), (1, 7), (9, 1)]
        graph = nx.Graph()
        graph.add_edges_from(edges)
        topo = topology_from_edges(edges + [(2, 5), (9, 2)])  # repeats count once
        assert list(topo.adjacency.items()) == _rows(graph)

    def test_ids_are_the_topologys_own_objects(self):
        """One int object per id: neighbor entries are the keys
        themselves, so dict probes with them compare by identity."""
        for topo in (GridTopology(30, 20),
                     RandomGeometricTopology(600, radius=1.8, side=600 ** 0.5, seed=1)):
            keys = {node: node for node in topo.adjacency}
            assert all(keys[nbr] is nbr
                       for nbrs in topo.adjacency.values() for nbr in nbrs)
            assert all(keys[node] is node for node in topo.positions)


class TestNeighborMemoization:
    def test_neighbors_sorted_tuple_and_cached(self):
        grid = GridTopology(4)
        center = grid.node_at(1, 1)
        first = grid.neighbors(center)
        assert isinstance(first, tuple)
        assert list(first) == sorted(first)
        assert grid.neighbors(center) is first  # memoized, not rebuilt

    def test_neighbors_match_graph(self):
        topo = RandomGeometricTopology(30, radius=4.0, seed=5)
        for node in topo.node_ids:
            assert set(topo.neighbors(node)) == set(topo.adjacency[node])
