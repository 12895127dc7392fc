"""A topology as a networkx graph, for tests that use networkx's
algorithms as oracles (the package itself never imports networkx)."""

import networkx as nx


def nx_graph(topology) -> nx.Graph:
    """``topology.adjacency`` as a networkx graph holding the same rows
    in the same order, so ``graph.adj``, ``graph.edges`` and every
    networkx search over it read as the adjacency does.  Filled row by
    row: ``add_edge`` in adjacency order would put a neighbor met
    earlier first in the later node's row."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.adjacency)
    rows = graph._adj
    for node, nbrs in topology.adjacency.items():
        row = rows[node]
        for nbr in nbrs:
            data = rows[nbr].get(node)  # one dict per edge
            row[nbr] = {} if data is None else data
    return graph
