#!/usr/bin/env python
"""E18 — Reliable transport vs. message loss.

E7 shows the theorems' loss-free assumption breaking: at 10% loss even
PA's join completeness collapses to ~0.48, at 20% to ~0.11.  E18
measures the same workload with the per-hop reliable transport
(ack/retransmit/backoff/dedup, ``repro.net.transport``) switched on:
completeness should return to >= 0.95 at 10% loss and >= 0.85 at 20%
— with results still *exactly* matching the oracle (receiver-side
dedup means retransmissions can never create duplicate derivations) —
while the table reports what the recovery costs in messages.

``--smoke`` shrinks the workload for CI; ``--check`` additionally
compares against the committed ``BENCH_e18.json`` floors and exits
non-zero when reliable-mode completeness regresses or any run produces
rows outside the oracle.  With ``--smoke --check`` it also compares the
per-run counts (frames, acks, retries, dups, give-ups, rows) for each
loss rate x mode x seed with the committed exact ``"smoke"`` table.
"""

import json
import os
import sys

import pytest

from harness import check_exact_table, report, run_join_workload

LOSS_RATES = [0.0, 0.05, 0.10, 0.20, 0.30]
M = 8
TUPLES = 10
REPS = 3

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_e18.json"
)


def measure(loss, m=M, tuples=TUPLES, reps=REPS, reliable=False, cells=None):
    """Average completeness/overhead of the E7 PA workload at one loss
    rate, with or without the reliable transport.  ``cells``, when
    given, receives each run's simulated counts keyed by seed."""
    fractions, extras, messages = [], 0, []
    acks = retries = dups = give_ups = 0
    for rep in range(reps):
        seed = 100 * rep + 7
        engine, net, expected = run_join_workload(
            m, "pa", tuples_per_stream=tuples, key_domain=3,
            seed=seed, loss_rate=loss, reliable=reliable,
        )
        got = engine.rows("j")
        if cells is not None:
            cells[seed] = {
                "frames": net.metrics.total_messages,
                "acks": net.metrics.acks,
                "retries": net.metrics.retries,
                "dups": net.metrics.dup_suppressed,
                "give_ups": net.metrics.retry_exhausted,
                "rows": len(got),
            }
        if not expected:
            continue
        fractions.append(len(got & expected) / len(expected))
        extras += len(got - expected)
        messages.append(net.metrics.total_messages)
        acks += net.metrics.acks
        retries += net.metrics.retries
        dups += net.metrics.dup_suppressed
        give_ups += net.metrics.retry_exhausted
    return {
        "completeness": sum(fractions) / len(fractions),
        "extras": extras,
        "messages": sum(messages) / len(messages),
        "acks": acks,
        "retries": retries,
        "dups": dups,
        "give_ups": give_ups,
    }


def run(loss_rates=LOSS_RATES, m=M, tuples=TUPLES, reps=REPS, table=None):
    """The E18 sweep; ``table``, when given, receives every run's counts
    under ``"<loss>/<mode>/seed<seed>"``."""
    rows = []
    results = {}
    for loss in loss_rates:
        base_cells, rel_cells = {}, {}
        base = measure(loss, m, tuples, reps, reliable=False, cells=base_cells)
        rel = measure(loss, m, tuples, reps, reliable=True, cells=rel_cells)
        if table is not None:
            for mode, cells in (("unreliable", base_cells),
                                ("reliable", rel_cells)):
                for seed, cell in cells.items():
                    table[f"{loss}/{mode}/seed{seed}"] = cell
        overhead = (
            rel["messages"] / base["messages"] if base["messages"] else 0.0
        )
        rows.append([
            f"{loss:.0%}",
            base["completeness"],
            rel["completeness"],
            "yes" if base["extras"] == rel["extras"] == 0 else "NO",
            f"{overhead:.2f}x",
            rel["acks"],
            rel["retries"],
            rel["dups"],
            rel["give_ups"],
        ])
        results[loss] = {
            "unreliable": base["completeness"],
            "reliable": rel["completeness"],
            "extras": base["extras"] + rel["extras"],
            "overhead": overhead,
        }
    report(
        "e18_reliable_loss",
        f"E18: PA join completeness vs. loss, reliable transport on/off "
        f"({m}x{m} grid, avg of {reps} runs)",
        ["loss", "unreliable", "reliable", "oracle-exact", "msg overhead",
         "acks", "retries", "dups", "give-ups"],
        rows,
    )
    return results


def check_baseline(results):
    """Exit non-zero when reliable-mode completeness drops below the
    committed floors, or any run derived rows outside the oracle."""
    with open(BASELINE_PATH) as f:
        baseline = json.load(f)
    failed = False
    for loss_key, entry in baseline["floors"].items():
        loss = float(loss_key)
        got = results.get(loss)
        if got is None:
            print(f"[baseline] loss {loss_key}: not measured — SKIPPED")
            continue
        ok = got["reliable"] >= entry["reliable_min"] and got["extras"] == 0
        status = "ok" if ok else "REGRESSED"
        print(
            f"[baseline] loss {loss_key}: reliable={got['reliable']:.3f} "
            f"(floor {entry['reliable_min']}) extras={got['extras']} {status}"
        )
        if not ok:
            failed = True
    if failed:
        sys.exit(1)


def test_e18_reliability_recovers_completeness(benchmark):
    results = benchmark.pedantic(
        run, args=([0.10], 6, 6, 2), rounds=1, iterations=1
    )
    res = results[0.10]
    # Reliability restores near-complete results at 10% loss, without
    # ever deriving a tuple the oracle doesn't have, at a bounded
    # message premium.
    assert res["reliable"] >= 0.95
    assert res["reliable"] > res["unreliable"]
    assert res["extras"] == 0
    assert res["overhead"] > 1.0


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    table = {}
    if smoke:
        results = run(loss_rates=[0.0, 0.10, 0.20], m=M, tuples=6, reps=2,
                      table=table)
    else:
        results = run()
    if "--check" in sys.argv:
        check_baseline(results)
        if smoke:
            check_exact_table("e18", table)
