#!/usr/bin/env python
"""E9 — Maintenance ablation: set-of-derivations vs. DRed.

Section IV-A argues for keeping derivation sets: counting breaks under
the non-deterministic duplication of a fault-tolerant scheme, and
rederivation (DRed) pays extra work per deletion.  We measure the
central work (rule firings, facts touched) the set-of-derivations
maintainer and DRed spend on the same insert/delete sequence over a
transitive-closure view with redundant paths — the workload where
DRed's over-deletion hurts most.  Counting is not measured here: it
rejects recursion, and ``tests/core/test_incremental.py`` checks it.

Expected shape: identical final results; DRed's per-deletion work
(over-deletions + re-derivation passes) exceeds the set-of-derivations
subtraction work.
"""

import sys

import pytest

from repro.core.incremental import (
    DRedEvaluator,
    IncrementalEvaluator,
)
from repro.core.parser import parse_program
from harness import check_exact_table, report

TC = "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z)."


def chain_with_shortcuts(n: int, shortcuts: int):
    edges = [(f"n{i}", f"n{i+1}") for i in range(n)]
    edges += [("n0", f"n{i}") for i in range(2, 2 + shortcuts)]
    return edges


def run_strategy(cls, edges, delete_edge):
    ev = cls(parse_program(TC))
    for u, v in edges:
        ev.insert("e", (u, v))
    before = ev.stats.snapshot()
    ev.delete("e", delete_edge)
    after = ev.stats.snapshot()
    delta = {k: after[k] - before[k] for k in after}
    return ev.rows("t"), delta


def run(chain=8, shortcut_levels=(2, 4, 6)):
    rows = []
    results = {}
    for shortcuts in shortcut_levels:
        edges = chain_with_shortcuts(chain, shortcuts)
        # Delete an edge the shortcuts bypass, so part of the
        # over-deleted set is re-derivable (DRed's worst case).
        delete_edge = ("n1", "n2")
        sod_rows, sod = run_strategy(IncrementalEvaluator, edges, delete_edge)
        dred_rows, dred = run_strategy(DRedEvaluator, edges, delete_edge)
        assert sod_rows == dred_rows
        rows.append([
            shortcuts,
            sod["rule_firings"], sod["facts_deleted"],
            dred["rule_firings"], dred["facts_overdeleted"],
            dred["facts_rederived"],
        ])
        results[shortcuts] = (sod, dred)
    report(
        "e9_maintenance",
        f"E9: work per deletion, transitive closure over a {chain}-chain "
        "with shortcut edges",
        ["shortcuts", "SoD firings", "SoD deletes",
         "DRed firings", "DRed overdeleted", "DRed rederived"],
        rows,
    )
    return results


def test_e9_dred_pays_rederivation(benchmark):
    results = benchmark.pedantic(run, args=(6, (2, 4)), rounds=1, iterations=1)
    for shortcuts, (sod, dred) in results.items():
        # DRed over-deletes and re-derives; set-of-derivations never does.
        assert sod["facts_overdeleted"] == 0
        assert dred["facts_overdeleted"] > 0
        assert dred["facts_rederived"] > 0
        assert dred["rule_firings"] > sod["rule_firings"]


if __name__ == "__main__":
    # The full table takes a fraction of a second: --smoke runs it too.
    results = run()
    if "--check" in sys.argv:
        check_exact_table("e9", {
            str(shortcuts): {"sod": sod, "dred": dred}
            for shortcuts, (sod, dred) in results.items()
        })
