#!/usr/bin/env python
"""Example 3: shortest-path tree via XY-stratified recursion+negation.

The 4-line logicH program (vs ~20 lines of procedural Kairos code)
compiles to localized joins: every derived tuple travels one hop.  The
improved logicJ variant (Section VI) carries only (node, depth) tuples
and costs visibly less; both are compared against hand-written
distance-vector flooding.

Run:  python examples/shortest_path_tree.py
"""

import networkx as nx

import repro
from repro.dist import ProceduralBFS, build_sptree, visible_rows
from repro.dist.localized import logich_program


def run_variant(m: int, root: int, variant: str):
    net = repro.GridNetwork(m, seed=42)
    engine, pred = build_sptree(net, root=root, variant=variant)
    net.run_all()
    return visible_rows(engine, pred), net.metrics


def run_procedural(m: int, root: int):
    net = repro.GridNetwork(m, seed=42)
    bfs = ProceduralBFS(net, root=root).install()
    bfs.start()
    net.run_all()
    return bfs.tree_rows(), net.metrics


def main() -> None:
    m, root = 8, 0
    print("logicH program (Example 3):")
    print(logich_program())

    net = repro.GridNetwork(m)
    truth = nx.single_source_shortest_path_length(nx.Graph(net.topology.adjacency), root)

    h_rows, h_metrics = run_variant(m, root, "h")
    print(f"logicH: {len(h_rows)} tree edges, "
          f"{h_metrics.total_messages} msgs, {h_metrics.total_bytes} bytes")
    assert all(truth[y] == d for (_x, y, d) in h_rows)

    j_rows, j_metrics = run_variant(m, root, "j")
    print(f"logicJ: {len(j_rows)} nodes labeled, "
          f"{j_metrics.total_messages} msgs, {j_metrics.total_bytes} bytes")
    assert j_rows == set(truth.items())

    p_rows, p_metrics = run_procedural(m, root)
    print(f"procedural flooding: {p_metrics.total_messages} msgs, "
          f"{p_metrics.total_bytes} bytes")
    assert p_rows == set(truth.items())

    print(f"\nlogicJ/logicH message ratio: "
          f"{j_metrics.total_messages / h_metrics.total_messages:.2f}")
    print(f"logicJ/procedural message ratio: "
          f"{j_metrics.total_messages / p_metrics.total_messages:.2f}")
    print("all variants agree with BFS ground truth")


if __name__ == "__main__":
    main()
