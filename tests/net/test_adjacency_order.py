"""Every walk over a topology's adjacency against the networkx call it
replaced, order included: row order decides route choice, link order
the fault timeline, tree order the regions' walks.  Topologies come
with shuffled rows, so an order taken from sorted ids would differ."""

import random

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.dist.regions import _dfs_walk
from repro.net.aggregation import TagAggregator
from repro.net.faults import FaultInjector, FaultSchedule
from repro.net.network import SensorNetwork
from repro.net.topology import _adjacency, _giant_component
from tests.graphs import nx_graph
from tests.net.test_topology_routing import _shuffled_graph


topologies = st.builds(lambda seed, n, chords: _shuffled_graph(n, chords, random.Random(seed)),
                       st.integers(0, 10_000), st.integers(8, 30), st.integers(0, 25))


@settings(max_examples=60, deadline=None)
@given(topologies, st.data())
def test_partition_cuts_links_in_graph_edge_order(topology, data):
    cut = data.draw(st.sets(st.sampled_from(sorted(topology.adjacency))))
    net = SensorNetwork(topology)
    injector = FaultInjector(net, FaultSchedule().partition(0.0, sorted(cut))).arm()
    net.run_all()
    assert injector._partition_links == [
        (a, b) for a, b in nx_graph(topology).edges if (a in cut) != (b in cut)
    ]


@settings(max_examples=60, deadline=None)
@given(topologies, st.data())
def test_tag_tree_is_networkx_bfs(topology, data):
    root = data.draw(st.sampled_from(sorted(topology.adjacency)))
    graph = nx_graph(topology)
    tag = TagAggregator(SensorNetwork(topology), root)
    assert list(tag.parent.items()) == list(nx.bfs_predecessors(graph, root))
    assert list(tag.depth.items()) == list(
        nx.single_source_shortest_path_length(graph, root).items()
    )


@settings(max_examples=60, deadline=None)
@given(topologies, st.data())
def test_dfs_walk_is_networkx_preorder_of_the_bfs_tree(topology, data):
    origin = data.draw(st.sampled_from(sorted(topology.adjacency)))
    tree = nx.bfs_tree(nx_graph(topology), origin)
    assert _dfs_walk(SensorNetwork(topology), origin) == list(
        nx.dfs_preorder_nodes(tree, origin)
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 90), st.floats(0.0, 0.1), st.integers(0, 10_000), st.booleans())
def test_giant_component_is_networkx_relabeled_subgraph(n, density, seed, ordered):
    """Components of every size, so both of networkx's subgraph
    iteration orders (node order; a set's, under half the nodes)."""
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    if not ordered:
        rng.shuffle(edges)
    positions = {i: (rng.random(), rng.random()) for i in range(n)}
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    component = max(nx.connected_components(graph), key=len)
    mapping = {old: new for new, old in enumerate(sorted(component))}
    expected = nx.relabel_nodes(graph.subgraph(component).copy(), mapping)
    rows, placed = _giant_component(_adjacency(range(n), edges), positions)
    assert list(rows.items()) == [(node, tuple(nbrs)) for node, nbrs in expected.adj.items()]
    assert list(placed.items()) == [(mapping[old], positions[old]) for old in component]
