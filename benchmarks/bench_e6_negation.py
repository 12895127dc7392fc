#!/usr/bin/env python
"""E6 — Negation under churn: the uncovered-vehicle query (Example 1).

Enemy/friendly detections arrive over multiple epochs and friendly
vehicles are also *withdrawn* (deletions), exercising the full Section
IV machinery: negated subgoals, deletion timestamps, derivation-set
subtraction, and re-derivation on blocker removal.

Expected shape: the in-network result tracks the centralized oracle
exactly at every churn level, with cost growing roughly linearly in the
number of updates.

``--smoke`` shrinks to CI scale; ``--check`` additionally compares the
smoke table with ``benchmarks/BENCH_e6.json`` for equality (simulated
counts: a frame or a byte that moved is a change of behaviour) and
sweeps the 8x8, 6-epoch configuration over seeds 0-24, with and
without withdrawals, failing on any row set that is not the oracle's
(the table's own cells all run one seed).
"""

import sys

import pytest

import repro
from repro.dist.gpa import GPAEngine
from repro.workloads import BattlefieldWorkload
from harness import check_exact_table, report

COVER = 3.0
PROGRAM = f"""
    cov(L1, T)  :- veh("enemy", L1, T), veh("friendly", L2, T),
                   dist(L1, L2) <= {COVER}.
    uncov(L, T) :- veh("enemy", L, T), not cov(L, T).
"""


def run_epochs(m: int, epochs: int, withdraw: bool, seed: int = 11):
    net = repro.GridNetwork(m, seed=seed)
    engine = GPAEngine(repro.parse_program(PROGRAM), net, strategy="pa").install()
    workload = BattlefieldWorkload(
        net.topology, n_enemy=3, n_friendly=2, epochs=epochs, seed=seed
    )
    detections = workload.detections()
    friendly_tids = []
    for when, node, pred, args in detections:
        net.run_until(when)
        tid = engine.publish(node, pred, args)
        if args[0] == "friendly":
            friendly_tids.append((node, args, tid))
    net.run_all()
    live = list(detections)
    if withdraw:
        for node, args, tid in friendly_tids[::2]:  # withdraw half the cover
            engine.retract(node, "veh", args, tid)
            live = [d for d in live if (d[1], d[3]) != (node, args)]
        net.run_all()
    oracle = BattlefieldWorkload.uncovered_oracle(live, COVER)
    got = engine.rows("uncov")
    return (
        got == oracle, len(oracle), net.metrics.total_messages,
        len(detections), net.metrics.category_bytes.get("join", 0),
    )


def run(m=8, epoch_list=(2, 4, 6)):
    rows = []
    results = {}
    for epochs in epoch_list:
        for withdraw in (False, True):
            correct, alerts, msgs, updates, join_bytes = run_epochs(
                m, epochs, withdraw
            )
            label = "with-deletions" if withdraw else "insert-only"
            rows.append([epochs, label, updates, alerts, msgs, join_bytes,
                         "yes" if correct else "NO"])
            results[(epochs, label)] = {
                "updates": updates, "alerts": alerts, "messages": msgs,
                "join_bytes": join_bytes, "correct": correct,
            }
    report(
        "e6_negation",
        f"E6: uncovered-vehicle query on a {m}x{m} grid",
        ["epochs", "mode", "updates", "alerts", "messages", "join-bytes",
         "matches-oracle"],
        rows,
    )
    return results


def test_e6_correct_under_churn(benchmark):
    results = benchmark.pedantic(run, args=(6, (2, 4)), rounds=1, iterations=1)
    assert all(cell["correct"] for cell in results.values())
    # Cost grows with updates (roughly linear: within 4x of proportional).
    two, four = results[(2, "insert-only")], results[(4, "insert-only")]
    assert (
        four["messages"] / two["messages"]
        <= 4 * (four["updates"] / two["updates"])
    )


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        results = run(6, (2, 4))
        if "--check" in sys.argv:
            check_exact_table("e6", {
                f"{epochs}/{label}": cell
                for (epochs, label), cell in results.items()
            })
            wrong = [
                (seed, withdraw)
                for seed in range(25) for withdraw in (False, True)
                if not run_epochs(8, 6, withdraw, seed=seed)[0]
            ]
            if wrong:
                sys.exit(f"e6: rows differ from the oracle at (seed, withdraw) {wrong}")
            print("e6: seeds 0-24 at (8, 6), both modes: every row set is the oracle's")
    else:
        run()
