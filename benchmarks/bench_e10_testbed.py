#!/usr/bin/env python
"""E10 — Testbed-scale validation.

The paper confirms its simulator results on a small physical testbed.
We mirror that with testbed-sized networks (3x3 and 4x4) under rough
conditions — clock skew and heavy jitter — and run the three example
applications end to end.

Expected shape: every application still computes the exact result on
testbed-scale networks; costs are tens to a few hundreds of messages.
Run as a script, it exits 1 if any cell is wrong (``NO``).
"""

import sys

import pytest

import repro
from repro.dist import GPAEngine, build_sptree, visible_rows
from repro.workloads import (
    TRAJECTORY_PROGRAM,
    BattlefieldWorkload,
    TrajectoryWorkload,
    trajectory_registry,
)
from harness import report

COVER = 2.0
UNCOV = f"""
    cov(L1, T)  :- veh("enemy", L1, T), veh("friendly", L2, T),
                   dist(L1, L2) <= {COVER}.
    uncov(L, T) :- veh("enemy", L, T), not cov(L, T).
"""

ROUGH = dict(delay_jitter=0.01, clock_skew=0.02)


def run_uncovered(m: int) -> tuple:
    net = repro.GridNetwork(m, seed=m, **ROUGH)
    engine = GPAEngine(repro.parse_program(UNCOV), net, strategy="pa").install()
    workload = BattlefieldWorkload(net.topology, n_enemy=2, n_friendly=1,
                                   epochs=3, seed=m)
    detections = workload.detections()
    for when, node, pred, args in detections:
        net.run_until(when)
        engine.publish(node, pred, args)
    net.run_all()
    oracle = BattlefieldWorkload.uncovered_oracle(detections, COVER)
    return engine.rows("uncov") == oracle, net.metrics.total_messages


def run_trajectories(m: int) -> tuple:
    net = repro.GridNetwork(m, seed=m, **ROUGH)
    registry = trajectory_registry()
    engine = GPAEngine(
        repro.parse_program(TRAJECTORY_PROGRAM, registry), net,
        strategy="pa", registry=registry,
    ).install()
    workload = TrajectoryWorkload(net.topology, n_targets=1, length=3,
                                  parallel_pair=False, seed=m)
    for when, node, pred, args in workload.reports():
        net.run_until(when)
        engine.publish(node, pred, args)
    net.run_all()
    expected = {(t,) for t in workload.complete_trajectories()}
    return engine.rows("completetraj") == expected, net.metrics.total_messages


def run_sptree(m: int) -> tuple:
    import networkx as nx

    net = repro.GridNetwork(m, seed=m, **ROUGH)
    engine, pred = build_sptree(net, root=0, variant="j")
    net.run_all()
    truth = set(
        nx.single_source_shortest_path_length(nx.Graph(net.topology.adjacency), 0).items()
    )
    return visible_rows(engine, "j") == truth, net.metrics.total_messages


def run(sizes=(3, 4)):
    rows = []
    results = {}
    apps = [
        ("uncovered-vehicle", run_uncovered),
        ("trajectories", run_trajectories),
        ("sptree (logicJ)", run_sptree),
    ]
    for m in sizes:
        for name, fn in apps:
            correct, msgs = fn(m)
            rows.append([f"{m}x{m}", name, msgs, "yes" if correct else "NO"])
            results[(m, name)] = correct
    report(
        "e10_testbed",
        "E10: testbed-scale runs (jitter + clock skew)",
        ["network", "application", "messages", "correct"],
        rows,
    )
    return results


def test_e10_all_correct(benchmark):
    results = benchmark.pedantic(run, args=((3,),), rounds=1, iterations=1)
    assert all(results.values()), results


if __name__ == "__main__":
    # A wrong cell (printed NO) fails the run.
    sys.exit(0 if all(run().values()) else 1)
