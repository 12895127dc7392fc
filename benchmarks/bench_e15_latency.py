#!/usr/bin/env python
"""E15 — Result latency (freshness): barrier vs. pipelined evaluation.

Theorem 3 buys correctness with delays: under barrier evaluation a
join phase starts only tau_s + tau_c after the storage phase, and the
phases themselves take hops.  The pipelined mode (E24) keeps the
theorem's *data-dependent* timestamp discipline but drops the
*arrival-time* wait for every rule the release analysis lets stream
(``core.stratify.rule_releases``) — stored replicas trigger join tokens
immediately and derivations stream hop-by-hop.

This bench measures end-to-end latency from an update's timestamp to
its first derived result at the hash node, across grid sizes, both
join strategies, and both modes.  Every (size, strategy) cell asserts
the two modes produce *identical* final rows and derivation stores
(the oracle-exactness contract), so the latency comparison is
apples-to-apples by construction.

Expected shape: barrier latency grows linearly in the grid side m for
every scheme and is dominated by the fixed tau_s + tau_c wait;
pipelined latency is pure propagation, so the gap *widens* with m —
multi-x mean-latency reduction at m=12.

The ``mixed`` cell (PA) runs a 3-way join under the multiple-pass
scheme, which holds Theorem 3's delay, beside an independent 2-way join
``pair``: the held rule must not cost ``pair`` its streaming.  It
asserts identical rows, derivation stores and frame counts across
modes and reports ``pair``'s latency.

``--smoke`` shrinks to CI scale; ``--check`` additionally gates the
simulated latencies and the pipelined speedup against the committed
``BENCH_e15.json`` baseline (the bench-smoke (e15) CI job runs both).
"""

import json
import os
import sys

import pytest

from harness import report, run_join_workload

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_e15.json"
)

SIZES = [6, 8, 10, 12]
SMOKE_SIZES = [6, 12]
STRATEGIES = ("pa", "centralized")
MODES = ("barrier", "pipelined")
MIXED = (
    "j(K, A, B, C) :- r(K, A), s(K, B), t(K, C). "
    "pair(A, B) :- p(K, A), q(K, B)."
)


def run(sizes=SIZES, tuples=10):
    rows = []
    results = {}
    for m in sizes:
        for strategy in STRATEGIES:
            per_mode = {}
            for mode in MODES:
                engine, net, expected = run_join_workload(
                    m, strategy, tuples_per_stream=tuples, key_domain=3,
                    seed=m, mode=mode,
                )
                assert engine.rows("j") == expected, (
                    f"{mode} rows diverged from the oracle at "
                    f"m={m} strategy={strategy}"
                )
                per_mode[mode] = engine
            barrier, pipelined = per_mode["barrier"], per_mode["pipelined"]
            assert pipelined.mode == "pipelined", (
                f"pipelined run held {pipelined.releases} at "
                f"m={m} strategy={strategy}"
            )
            assert barrier.derivation_store() == pipelined.derivation_store(), (
                f"derivation stores diverged at m={m} strategy={strategy}"
            )
            results[(m, strategy)] = _cell(rows, m, strategy, barrier, pipelined, "j")
        barrier, pipelined = _run_mixed(m, tuples)
        results[(m, "mixed")] = _cell(rows, m, "mixed", barrier, pipelined, "pair")
    report(
        "e15_latency",
        "E15: update-to-result latency, barrier vs pipelined "
        "(seconds of simulated time)",
        ["grid", "strategy", "results", "barrier mean", "barrier max",
         "pipelined mean", "pipelined max", "speedup", "identical"],
        rows,
    )
    return results


def _cell(rows, m, label, barrier, pipelined, pred):
    """One table row and gate entry: ``pred``'s latency in both modes."""
    b_lat = barrier.latency_report(pred)
    p_lat = pipelined.latency_report(pred)
    speedup = b_lat["mean"] / p_lat["mean"] if p_lat["mean"] > 0 else 0.0
    rows.append([
        f"{m}x{m}", label, b_lat["count"],
        b_lat["mean"], b_lat["max"],
        p_lat["mean"], p_lat["max"],
        f"{speedup:.2f}x", "yes",
    ])
    return {
        "barrier_mean": b_lat["mean"],
        "barrier_max": b_lat["max"],
        "pipelined_mean": p_lat["mean"],
        "pipelined_max": p_lat["max"],
        "speedup": speedup,
    }


def _run_mixed(m, tuples):
    """The mixed cell: the multi-pass ``j`` holds, ``pair`` streams."""
    runs = {}
    for mode in MODES:
        engine, net, expected = run_join_workload(
            m, "pa", tuples_per_stream=tuples,
            streams=("r", "s", "t", "p", "q"), key_domain=3,
            program=MIXED, seed=m, mode=mode, scheme="multi-pass",
        )
        assert engine.rows("j") == expected, (
            f"{mode} rows diverged from the oracle at m={m} mixed"
        )
        runs[mode] = (engine, net.metrics.total_messages)
    (barrier, b_frames), (pipelined, p_frames) = runs["barrier"], runs["pipelined"]
    held = {pipelined.plan.by_id[rid].head.predicate: why
            for rid, why in pipelined.releases.items() if why is not None}
    assert held == {"j": "multi-pass"}, f"m={m} mixed held {held}"
    assert barrier.rows("pair") == pipelined.rows("pair")
    assert barrier.derivation_store() == pipelined.derivation_store(), (
        f"derivation stores diverged at m={m} mixed"
    )
    assert b_frames == p_frames, f"frames {b_frames} != {p_frames} at m={m} mixed"
    return barrier, pipelined


def check_baseline(results):
    """Gate the measured latencies against the committed baseline.

    The latencies are *simulated* time — deterministic functions of the
    seed — so the barrier floor and the speedup floor are exact gates:
    a barrier mean below its floor means barrier mode silently stopped
    waiting out tau_s + tau_c (the comparison is vacuous), a speedup
    below its floor means pipelining stopped paying for itself.
    Wall-clock ceilings apply only on boxes with ``min_cpus`` present,
    mirroring BENCH_e19's sharded gates.
    """
    with open(BASELINE_PATH) as f:
        baseline = json.load(f)
    failed = False
    for key, entry in baseline["gates"].items():
        m_str, strategy = key.split("/")
        got = results.get((int(m_str), strategy))
        if got is None:
            print(f"[e15] {key}: not measured in this run, skipping")
            continue
        checks = []
        if "barrier_mean_min" in entry:
            checks.append((
                got["barrier_mean"] >= entry["barrier_mean_min"],
                f"barrier mean={got['barrier_mean']:.3f}s "
                f"(floor {entry['barrier_mean_min']}s)",
            ))
        if "pipelined_mean_max" in entry:
            checks.append((
                got["pipelined_mean"] <= entry["pipelined_mean_max"],
                f"pipelined mean={got['pipelined_mean']:.3f}s "
                f"(ceiling {entry['pipelined_mean_max']}s)",
            ))
        if "speedup_min" in entry:
            cpus = os.cpu_count() or 1
            if cpus < entry.get("min_cpus", 1):
                print(f"[e15] {key}: speedup floor skipped "
                      f"({cpus} cpus < min_cpus={entry['min_cpus']})")
            else:
                checks.append((
                    got["speedup"] >= entry["speedup_min"],
                    f"speedup={got['speedup']:.2f}x "
                    f"(floor {entry['speedup_min']}x)",
                ))
        for ok, desc in checks:
            print(f"[e15] {key}: {desc} {'OK' if ok else 'FAIL'}")
            failed = failed or not ok
    if failed:
        sys.exit(1)


def test_e15_latency_scales_with_m(benchmark):
    results = benchmark.pedantic(
        run, args=(SMOKE_SIZES, 8), rounds=1, iterations=1
    )
    # Linear-ish growth with the grid side for barrier PA.
    pa6 = results[(6, "pa")]
    pa12 = results[(12, "pa")]
    assert pa12["barrier_mean"] > pa6["barrier_mean"]
    assert pa12["barrier_mean"] < 6 * pa6["barrier_mean"]
    # The headline: pipelining at least halves mean latency at m=12.
    assert pa12["speedup"] >= 2.0
    # A held multi-pass join leaves its neighbour streaming.
    assert results[(12, "mixed")]["speedup"] >= 1.8


if __name__ == "__main__":
    sizes = SMOKE_SIZES if "--smoke" in sys.argv else SIZES
    results = run(sizes=sizes)
    if "--check" in sys.argv:
        check_baseline(results)
