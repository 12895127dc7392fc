#!/usr/bin/env python
"""E4 — Multi-stream joins: the one-pass and the multiple-pass scheme
for n streams.

Section III-A generalizes PA to n-way joins: one storage phase per
tuple plus a single traversal of the join region carrying partial
results of every length (Fig. 1) — or, in the multiple-pass scheme, one
traversal per joined stream, each carrying only the partial results of
the previous pass.  We measure total cost and the join token bytes
(which carry the partial results) for n = 2, 3, 4 streams, at two join
selectivities, under both schemes.

Expected shape: storage cost grows linearly with the number of tuples;
join-phase bytes grow with n and with selectivity (more/larger partial
results), but a single pass still suffices — messages stay O(m) per
update.  The multiple-pass scheme is the one-pass scheme at n = 2 (one
stream is left to join) and pays n - 1 traversals per update above it.

``--smoke`` shrinks to CI scale; ``--check`` additionally compares the
smoke table with ``benchmarks/BENCH_e4.json`` for equality (simulated
counts: a frame or a byte that moved is a change of behaviour).
"""

import sys

import pytest

from harness import check_exact_table, report, run_join_workload

M = 8
TUPLES = 8
SCHEMES = ("one-pass", "multi-pass")


def run(m=M, tuples=TUPLES):
    rows = []
    results = {}
    for n in (2, 3, 4):
        streams = ["r", "s", "t", "u"][:n]
        for domain, label in ((2, "high"), (6, "low")):
            for scheme in SCHEMES:
                engine, net, expected = run_join_workload(
                    m, "pa", tuples_per_stream=tuples, streams=streams,
                    key_domain=domain, seed=n * 10 + domain, scheme=scheme,
                )
                cell = {
                    "results": len(expected),
                    "messages": net.metrics.total_messages,
                    "join_bytes": net.metrics.category_bytes.get("join", 0),
                    "correct": engine.rows("j") == expected,
                }
                rows.append([
                    n, label, scheme, cell["results"], cell["messages"],
                    cell["join_bytes"], "yes" if cell["correct"] else "NO",
                ])
                results[(n, label, scheme)] = cell
    report(
        "e4_multiway",
        f"E4: n-way join on a {m}x{m} grid ({tuples} tuples/stream)",
        ["streams", "selectivity", "scheme", "results", "messages",
         "join-bytes", "correct"],
        rows,
    )
    return results


def test_e4_shape(benchmark):
    results = benchmark.pedantic(run, args=(6, 6), rounds=1, iterations=1)
    for key, cell in results.items():
        assert cell["correct"], key
    # Higher selectivity (smaller domain) => more partial-result bytes.
    for scheme in SCHEMES:
        assert (
            results[(3, "high", scheme)]["join_bytes"]
            > results[(3, "low", scheme)]["join_bytes"]
        )
    # With two streams there is one left to join: the schemes coincide.
    for label in ("high", "low"):
        assert results[(2, label, "multi-pass")] == results[(2, label, "one-pass")]
    # Above that the multiple-pass scheme walks the region once per stream.
    assert (
        results[(4, "low", "multi-pass")]["messages"]
        > results[(4, "low", "one-pass")]["messages"]
    )


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        results = run(6, 6)
        if "--check" in sys.argv:
            check_exact_table("e4", {
                f"{n}/{label}/{scheme}": cell
                for (n, label, scheme), cell in results.items()
            })
    else:
        run()
