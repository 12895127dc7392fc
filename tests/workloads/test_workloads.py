"""Tests for the workload generators."""

import math

import pytest

from repro.net.topology import GridTopology
from repro.workloads import (
    BattlefieldWorkload,
    TRAJECTORY_PROGRAM,
    TrajectoryWorkload,
    close_reports,
    parallel_paths,
    trajectory_registry,
)


class TestBattlefield:
    def test_detections_at_nearest_node(self):
        topo = GridTopology(6)
        w = BattlefieldWorkload(topo, epochs=3, seed=1)
        for _t, node, pred, (kind, loc, epoch) in w.detections():
            assert pred == "veh"
            assert kind in ("enemy", "friendly")
            assert node == topo.nearest_node(loc)
            assert 0 <= epoch < 3

    def test_oracle_definition(self):
        topo = GridTopology(6)
        detections = [
            (0.0, 0, "veh", ("enemy", (1.0, 1.0), 0)),
            (0.0, 1, "veh", ("friendly", (1.5, 1.0), 0)),
            (0.0, 2, "veh", ("enemy", (5.0, 5.0), 0)),
        ]
        oracle = BattlefieldWorkload.uncovered_oracle(detections, cover_range=1.0)
        assert oracle == {((5.0, 5.0), 0)}

    def test_vehicles_move(self):
        topo = GridTopology(8)
        w = BattlefieldWorkload(topo, n_enemy=1, n_friendly=0, epochs=2, seed=5)
        v = w.vehicles[0]
        assert v.position(0.0) != v.position(1.0)


class TestTrajectories:
    def test_close_semantics(self):
        assert close_reports((1, 1, 0), (2, 2, 1))
        assert not close_reports((1, 1, 0), (2, 2, 2))   # time gap
        assert not close_reports((1, 1, 0), (4, 1, 1))   # too far
        assert not close_reports((1, 1, 0), (1, 1, 1))   # stationary

    def test_parallel_semantics(self):
        a = ((2, 2, 1), (1, 1, 0))
        b = ((2, 5, 1), (1, 4, 0))
        c = ((2, 9, 1), (1, 4, 0))
        assert parallel_paths(a, b)
        assert not parallel_paths(a, c)
        assert not parallel_paths(a, a)

    def test_tracks_do_not_cross_link(self):
        topo = GridTopology(10)
        w = TrajectoryWorkload(topo, n_targets=2, length=4, parallel_pair=True, seed=3)
        t1, t2 = w.tracks
        for r1 in t1:
            for r2 in t2:
                assert not close_reports(r1, r2)
                assert not close_reports(r2, r1)

    def test_oracle_matches_evaluation(self):
        import repro

        topo = GridTopology(10)
        w = TrajectoryWorkload(topo, n_targets=2, length=4, parallel_pair=True, seed=6)
        registry = trajectory_registry()
        db = repro.Database(registry)
        for _t, _n, pred, args in w.reports():
            db.assert_fact(pred, args)
        repro.evaluate(repro.parse_program(TRAJECTORY_PROGRAM, registry), db, registry)
        assert db.rows("completetraj") == {(t,) for t in w.complete_trajectories()}
        pairs = {frozenset(p) for p in db.rows("parallel")}
        assert pairs == w.parallel_pairs()

    def test_reports_sorted_by_time(self):
        topo = GridTopology(10)
        w = TrajectoryWorkload(topo, seed=7)
        times = [e[0] for e in w.reports()]
        assert times == sorted(times)
