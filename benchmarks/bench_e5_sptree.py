#!/usr/bin/env python
"""E5 — Shortest-path tree: logicH vs. logicJ vs. procedural flooding.

The paper's marquee program (Example 3): the 4-line XY-stratified
logicH program and the improved logicJ variant of Section VI, compiled
to localized joins, against hand-written distance-vector flooding (the
Kairos-style ~20-line procedural comparator).

Expected shape: all three compute the exact BFS tree; logicJ costs
roughly half of logicH (smaller tuples, one fewer attribute to carry);
the declarative translations stay within a small constant factor of the
hand-written procedural code.

``--smoke`` runs the grid table plus one logicJ random-geometric cell
(60 nodes, radius 1.8); ``--check`` additionally compares that table
with ``benchmarks/BENCH_e5.json`` for equality — the counts are
simulated, so a frame or a byte that moved is a change of behaviour.
"""

import sys

import networkx as nx
import pytest

import repro
from repro.dist import ProceduralBFS, build_sptree, visible_rows
from harness import check_exact_table, report

SIZES = [4, 6, 8]


def bfs_tree_cell(net, variant: str, root: int = 0):
    """Build the tree from ``root`` with ``variant`` ('h', 'j' or
    'procedural') and return (correct, metrics)."""
    if variant == "procedural":
        bfs = ProceduralBFS(net, root=root).install()
        bfs.start()
        net.run_all()
        rows = bfs.tree_rows()
    else:
        engine, pred = build_sptree(net, root=root, variant=variant)
        net.run_all()
        rows = visible_rows(engine, pred)
        if variant == "h":
            rows = {(y, d) for (_x, y, d) in rows}
    truth = set(
        nx.single_source_shortest_path_length(nx.Graph(net.topology.adjacency), root).items()
    )
    return rows == truth, net.metrics


def run_grid(m: int, variant: str):
    return bfs_tree_cell(repro.GridNetwork(m, seed=m), variant)


def run_random(n: int = 60, seed: int = 2):
    """logicJ on a random-geometric deployment at radius 1.8 and unit
    density (the cell ``test_localized.py`` pins)."""
    net = repro.RandomNetwork(n, radius=1.8, side=n ** 0.5, seed=seed)
    return bfs_tree_cell(net, "j")


def run(sizes=SIZES):
    rows = []
    results = {}
    for m in sizes:
        for variant in ("h", "j", "procedural"):
            correct, metrics = run_grid(m, variant)
            rows.append([
                f"{m}x{m}", variant, metrics.total_messages,
                metrics.total_bytes, "yes" if correct else "NO",
            ])
            results[(m, variant)] = (metrics.total_messages, metrics.total_bytes, correct)
    report(
        "e5_sptree",
        "E5: shortest-path-tree construction cost",
        ["grid", "variant", "messages", "bytes", "correct"],
        rows,
    )
    for m in sizes:
        h = results[(m, "h")][0]
        j = results[(m, "j")][0]
        p = results[(m, "procedural")][0]
        print(f"  {m}x{m}: logicJ/logicH = {j/h:.2f}, logicJ/procedural = {j/p:.2f}")
    return results


def smoke_table():
    table = {
        f"{m}x{m}/{variant}": {"frames": frames, "bytes": bytes_, "correct": correct}
        for (m, variant), (frames, bytes_, correct) in run().items()
    }
    correct, metrics = run_random()
    table["random60-r1.8-seed2/j"] = {
        "frames": metrics.total_messages, "bytes": metrics.total_bytes,
        "correct": correct,
    }
    print(f"  random 60 nodes r=1.8 seed 2, logicJ: {table['random60-r1.8-seed2/j']}")
    return table


def test_e5_shape(benchmark):
    results = benchmark.pedantic(run, args=([4, 6],), rounds=1, iterations=1)
    for key, (msgs, bytes_, correct) in results.items():
        assert correct, key
    for m in (4, 6):
        # The Section VI improvement: logicJ strictly cheaper than logicH.
        assert results[(m, "j")][0] < results[(m, "h")][0]
        assert results[(m, "j")][1] < results[(m, "h")][1]
        # Declarative within a small constant of procedural.
        assert results[(m, "j")][0] <= 10 * results[(m, "procedural")][0]


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        table = smoke_table()
        if "--check" in sys.argv:
            check_exact_table("e5", table)
    else:
        run()
