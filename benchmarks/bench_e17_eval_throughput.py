#!/usr/bin/env python
"""E17 — evaluator throughput: the production path vs. the seed oracle.

Runs the same centralized workloads twice — once on the production
executors (vectorized batch kernels where a firing vectorizes, the
tuple-at-a-time plan executor where it does not) and once inside
``seed_engine()`` (the original recursive enumerator) — and reports
wall time, derived facts per second, index probes and full scans:

* ``tc`` — transitive closure of a random graph (the classic recursive
  join workload; the headline is the ≥10x facts/sec gain here);
* ``sptree`` — the E5 shortest-path-tree (logicH) program on a grid
  graph, exercising the XY stage evaluator, negation and arithmetic.

The production run's derived rows and derivation store are checked
identical to the oracle's (the ``identical`` column).  ``--smoke``
shrinks both workloads for CI; ``--check`` additionally gates against
the committed ``BENCH_e17.json`` baseline: ``tc`` on the oracle/production
wall ratio (``speedup_min``; both paths run on the same host, so the
ratio does not depend on it), ``sptree`` on derived-facts/sec with a 2x
margin.

Both scales end with the ``sptree`` scaling rows: logicH on an 8x8 and a
16x16 grid (4.2x the derived facts) on the production path.  The ratio
of the two wall times does not depend on the host, so ``--check`` gates
it absolutely (``BENCH_e17.json`` ``scaling``): a stage driver that
re-joins the whole database at every stage reads 10.7, one that fires
on the stage frontier about 6.  So are the 16x16 production run's index
probes (``sptree_probes_max``), a count: a tiny delta joined in body
order instead of first scans and probes the other subgoals per row.
"""

import json
import os
import random
import sys
import time

import pytest

from harness import report

from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program
from contextlib import nullcontext

from repro.core.plan import GLOBAL_PLAN_CACHE, seed_engine

TC_PROGRAM = """
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- e(X, Y), tc(Y, Z).
"""

#: The E5 logicH shortest-path-tree program (Example 3 / Section IV-C).
SPTREE_PROGRAM = """
    h(a, a, 0).
    h(a, X, 1) :- g(a, X).
    hp(Y, D + 1) :- h(_, Y, Dp), D + 1 > Dp, h(_, X, D), g(X, Y).
    h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
"""

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_e17.json"
)


def tc_facts(n_nodes, out_degree, seed=17):
    """Random ``out_degree``-regular-out digraph edges.

    Tracks the per-node count directly instead of rescanning the whole
    fact set per accepted edge (the old ``len([f for f in facts ...])``
    made generation quadratic and dominated large-n runs).  The RNG
    draw sequence is unchanged: one ``randrange`` per attempt, retried
    on duplicates, so the generated graphs are identical to before.
    """
    rng = random.Random(seed)
    facts = set()
    for u in range(n_nodes):
        count = 0
        while count < out_degree:
            fact = ("e", (u, rng.randrange(n_nodes)))
            if fact not in facts:
                facts.add(fact)
                count += 1
    return sorted(facts)


def sptree_facts(m):
    """A bidirectional m x m grid graph rooted at node ``a``."""

    def name(x, y):
        return "a" if (x, y) == (0, 0) else f"n{x}_{y}"

    facts = []
    for x in range(m):
        for y in range(m):
            for dx, dy in ((1, 0), (0, 1)):
                nx, ny = x + dx, y + dy
                if nx < m and ny < m:
                    facts.append(("g", (name(x, y), name(nx, ny))))
                    facts.append(("g", (name(nx, ny), name(x, y))))
    return facts


WORKLOADS = {
    "tc": {
        "program": TC_PROGRAM,
        "idb": ["tc"],
        "full": lambda: tc_facts(60, 4),
        "smoke": lambda: tc_facts(30, 4),
    },
    "sptree": {
        "program": SPTREE_PROGRAM,
        "idb": ["h", "hp"],
        "full": lambda: sptree_facts(12),
        "smoke": lambda: sptree_facts(6),
    },
}

#: Grid sides of the logicH scaling rows.
SCALING_GRIDS = (8, 16)

#: Row name -> the context the fixpoint runs in.
PATHS = {"production": nullcontext, "oracle": seed_engine}


def run_once(program_text, facts, idb_preds, reps=1):
    """Evaluate ``program_text`` over ``facts`` on a fresh database and
    report the fastest of ``reps`` repetitions (min-of-k damps shared
    runner jitter; derived rows and counters are identical per rep)."""
    program = parse_program(program_text)
    best = None
    for _ in range(reps):
        db = Database()
        for pred, args in facts:
            db.assert_fact(pred, args)
        GLOBAL_PLAN_CACHE.clear()  # charge compilation to the timed run
        start = time.perf_counter()
        evaluate(program, db)
        secs = time.perf_counter() - start
        if best is None or secs < best[0]:
            best = (secs, db)
    secs, db = best
    derived = sum(db.count(p) for p in idb_preds)
    return {
        "rows": {p: db.rows(p) for p in idb_preds},
        "store": db.derivations.snapshot(),
        "secs": secs,
        "derived": derived,
        "facts_per_sec": derived / secs if secs > 0 else float("inf"),
        "probes": sum(db.relation(p).probes for p in db.predicates()),
        "scans": sum(db.relation(p).scans for p in db.predicates()),
    }


def same_fixpoint(production, oracle):
    """The ``identical`` column: the same derived rows and the same
    derivation store, every fact with every derivation."""
    return (production["rows"] == oracle["rows"]
            and production["store"] == oracle["store"])


def run(smoke=False):
    scale = "smoke" if smoke else "full"
    reps = 3 if smoke else 1  # smoke is cheap enough to take best-of-3
    rows = []
    results = {}
    for name, spec in WORKLOADS.items():
        facts = spec[scale]()
        runs = {}
        for path, context in PATHS.items():
            with context():
                runs[path] = run_once(
                    spec["program"], facts, spec["idb"], reps=reps
                )
        production, oracle = runs["production"], runs["oracle"]
        identical = same_fixpoint(production, oracle)
        results[name] = {}
        for path, res in runs.items():
            rows.append([
                name, scale, path, f"{res['secs'] * 1e3:.1f}",
                res["derived"], int(res["facts_per_sec"]),
                res["probes"], res["scans"], "yes" if identical else "NO",
            ])
            results[name][path] = {
                "identical": identical,
                "facts_per_sec": res["facts_per_sec"],
                "probes": res["probes"],
            }
        speedup = (
            oracle["secs"] / production["secs"]
            if production["secs"] > 0 else 0.0
        )
        probe_ratio = (
            oracle["probes"] / production["probes"]
            if production["probes"] else float("inf")
        )
        results[name]["production"]["speedup"] = speedup
        results[name]["production"]["probe_ratio"] = probe_ratio
        rows.append([
            name, scale, "oracle/production", f"{speedup:.2f}x", "", "",
            f"{probe_ratio:.1f}x", "", "",
        ])
    results["scaling"] = run_scaling(rows)
    report(
        "e17_eval_throughput",
        f"E17: evaluator throughput, production vs seed oracle ({scale})",
        ["workload", "scale", "path", "wall-ms", "derived",
         "facts/s", "probes", "scans", "identical"],
        rows,
    )
    return results


def run_scaling(rows):
    """logicH on the :data:`SCALING_GRIDS` on the production path, best
    of 5 with the two grids interleaved (a host-speed excursion that
    covers one round is dropped from both sides of the ratio); the
    larger grid's rows are checked against one oracle run."""
    idb = WORKLOADS["sptree"]["idb"]
    m_small, m_large = SCALING_GRIDS
    rounds = [
        [run_once(SPTREE_PROGRAM, sptree_facts(m), idb) for m in SCALING_GRIDS]
        for _ in range(5)
    ]
    small, large = (
        min(runs, key=lambda res: res["secs"]) for runs in zip(*rounds)
    )
    with seed_engine():
        oracle = run_once(SPTREE_PROGRAM, sptree_facts(m_large), idb)
    identical = same_fixpoint(large, oracle)
    for m, path, res in ((m_small, "production", small),
                         (m_large, "production", large),
                         (m_large, "oracle", oracle)):
        rows.append([
            "sptree", f"{m}x{m}", path, f"{res['secs'] * 1e3:.1f}",
            res["derived"], int(res["facts_per_sec"]),
            res["probes"], res["scans"], "yes" if identical else "NO",
        ])
    ratio = large["secs"] / small["secs"]
    rows.append([
        "sptree", f"{m_large}x{m_large}/{m_small}x{m_small}", "production",
        f"{ratio:.2f}x", f"{large['derived'] / small['derived']:.2f}x",
        "", "", "", "",
    ])
    return {"production": {"identical": identical, "ratio": ratio,
                           "probes": large["probes"]}}


def check_baseline(results):
    """Exit non-zero when a workload's oracle/production wall ratio fell
    below its ``speedup_min``, or derived-facts/sec regressed >2x vs the
    committed per-path baseline (the CI perf gate)."""
    with open(BASELINE_PATH) as f:
        baseline = json.load(f)
    failed = False
    for name, paths in baseline["workloads"].items():
        for path, committed in paths.items():
            if path == "speedup_min":
                got = results[name]["production"]["speedup"]
                status = "ok" if got >= committed else "REGRESSED"
                print(f"[baseline] {name}: oracle/production wall {got:.2f} "
                      f"(floor {committed}) {status}")
                failed |= got < committed
                continue
            floor = committed["facts_per_sec"] / 2.0
            got = (
                results.get(name, {}).get(path, {}).get("facts_per_sec", 0.0)
            )
            status = "ok" if got >= floor else "REGRESSED"
            print(f"[baseline] {name}/{path}: {got:.0f} facts/s "
                  f"(floor {floor:.0f}) {status}")
            if got < floor:
                failed = True
    ratio = results["scaling"]["production"]["ratio"]
    ceiling = baseline["scaling"]["sptree_wall_ratio_max"]
    status = "ok" if ratio <= ceiling else "REGRESSED"
    print(f"[baseline] sptree {SCALING_GRIDS[1]}/{SCALING_GRIDS[0]} grid "
          f"wall ratio: {ratio:.2f} (ceiling {ceiling}) {status}")
    if ratio > ceiling:
        failed = True
    probes = results["scaling"]["production"]["probes"]
    ceiling = baseline["scaling"]["sptree_probes_max"]
    status = "ok" if probes <= ceiling else "REGRESSED"
    print(f"[baseline] sptree {SCALING_GRIDS[1]}x{SCALING_GRIDS[1]} production "
          f"probes: {probes} (ceiling {ceiling}) {status}")
    if probes > ceiling:
        failed = True
    if failed:
        sys.exit(1)


def test_e17_shape(benchmark):
    results = benchmark.pedantic(run, kwargs={"smoke": True},
                                 rounds=1, iterations=1)
    for name, paths in results.items():
        for path, res in paths.items():
            assert res["identical"], \
                f"{name}/{path}: rows or store differ from oracle"
    # Compile-once plans with memoized / per-step probing do at least 3x
    # fewer index probes than the oracle on transitive closure.
    assert results["tc"]["production"]["probe_ratio"] >= 3.0


if __name__ == "__main__":
    results = run(smoke="--smoke" in sys.argv)
    for name, path_results in results.items():
        if not path_results["production"]["identical"]:
            print(f"ERROR: {name}: production rows or derivation store "
                  "differ from the oracle's")
            sys.exit(2)
    if "--check" in sys.argv:
        check_baseline(results)
