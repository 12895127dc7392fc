#!/usr/bin/env python
"""E1 — Join communication cost vs. network size, per strategy.

Reconstructs the paper's headline comparison (Section III-A / VI): the
Perpendicular Approach against Naive Broadcast, Local Storage, a corner
server (Centralized), and the Centroid Approach, on a two-stream join
with uniform tuple generation.

Expected shape: the degenerate GPA baselines (broadcast, local-storage)
scale with N = m^2 per tuple and dominate everything; PA scales with m
and stays far below them; the centroid/centralized schemes have
comparable or lower *totals* at small scale but concentrate load on the
server (see E3 for the hotspot story).

``--smoke`` shrinks to CI scale; ``--check`` additionally compares the
smoke table with ``benchmarks/BENCH_e1.json`` for equality — the counts
are simulated, so a frame, a byte or a hotspot that moved is a change of
behaviour, not noise.
"""

import sys

import pytest

from harness import check_exact_table, report, run_join_workload

STRATEGIES = ["pa", "centroid", "centralized", "broadcast", "local-storage"]
SIZES = [6, 8, 10, 12]
TUPLES = 12


def run(sizes=SIZES, tuples=TUPLES):
    rows = []
    results = {}
    for m in sizes:
        for strategy in STRATEGIES:
            engine, net, expected = run_join_workload(
                m, strategy, tuples_per_stream=tuples, seed=m
            )
            correct = engine.rows("j") == expected
            rows.append([
                f"{m}x{m}", strategy, net.metrics.total_messages,
                net.metrics.total_bytes, net.metrics.max_node_load,
                "yes" if correct else "NO",
            ])
            results[(m, strategy)] = {
                "messages": net.metrics.total_messages,
                "bytes": net.metrics.total_bytes,
                "max_load": net.metrics.max_node_load,
                "correct": correct,
            }
    report(
        "e1_join_cost",
        "E1: two-stream join cost by strategy and grid size "
        f"({tuples} tuples/stream)",
        ["grid", "strategy", "messages", "bytes", "max-load", "correct"],
        rows,
    )
    return results


def test_e1_shape(benchmark):
    results = benchmark.pedantic(run, args=([6, 8], 8), rounds=1, iterations=1)
    messages = {key: cell["messages"] for key, cell in results.items()}
    # PA beats both degenerate GPA baselines at every size.
    for m in (6, 8):
        assert messages[(m, "pa")] < messages[(m, "broadcast")]
        assert messages[(m, "pa")] < messages[(m, "local-storage")]
    # The degenerate baselines blow up faster with network size.
    assert (
        messages[(8, "broadcast")] / messages[(6, "broadcast")]
        > messages[(8, "pa")] / messages[(6, "pa")]
    )


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        results = run(sizes=[6, 8], tuples=8)
        if "--check" in sys.argv:
            check_exact_table("e1", {
                f"{m}x{m}/{strategy}": cell
                for (m, strategy), cell in results.items()
            })
    else:
        run()
