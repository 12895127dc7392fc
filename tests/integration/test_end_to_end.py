"""End-to-end integration tests: full applications over the full stack,
always validated against the centralized oracle."""

import random

import networkx as nx
import pytest

import repro
from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program
from repro.dist.gpa import GPAEngine
from repro.dist.localized import build_sptree, visible_rows
from repro.net.network import GridNetwork, RandomNetwork
from repro.workloads import (
    TRAJECTORY_PROGRAM,
    BattlefieldWorkload,
    TrajectoryWorkload,
    trajectory_registry,
)

COVER = 3.0
UNCOV = f"""
    cov(L1, T)  :- veh("enemy", L1, T), veh("friendly", L2, T),
                   dist(L1, L2) <= {COVER}.
    uncov(L, T) :- veh("enemy", L, T), not cov(L, T).
"""


class TestVehicleTrackingPipeline:
    def test_matches_oracle_over_epochs(self):
        net = GridNetwork(8, seed=31)
        engine = GPAEngine(parse_program(UNCOV), net, strategy="pa").install()
        workload = BattlefieldWorkload(
            net.topology, n_enemy=3, n_friendly=2, epochs=4, seed=31
        )
        detections = workload.detections()
        for when, node, pred, args in detections:
            net.run_until(when)
            engine.publish(node, pred, args)
        net.run_all()
        assert engine.rows("uncov") == workload.uncovered_oracle(detections, COVER)

    def test_late_cover_withdraws_alert(self):
        net = GridNetwork(8, seed=32)
        engine = GPAEngine(parse_program(UNCOV), net, strategy="pa").install()
        engine.publish(10, "veh", ("enemy", (2.0, 2.0), 0))
        net.run_all()
        assert engine.rows("uncov") == {((2.0, 2.0), 0)}
        engine.publish(30, "veh", ("friendly", (2.5, 2.0), 0))
        net.run_all()
        assert engine.rows("uncov") == set()


class TestTrajectoryPipeline:
    """Regression for the anti-join coverage bug: blockers (notstart /
    notlast) may be stored on a row the candidate's join pass visited
    *before* the candidate was created — the out-and-back traversal must
    strike them."""

    def run_pipeline(self, seed):
        net = GridNetwork(10, seed=seed)
        registry = trajectory_registry()
        engine = GPAEngine(
            parse_program(TRAJECTORY_PROGRAM, registry), net,
            strategy="pa", registry=registry,
        ).install()
        workload = TrajectoryWorkload(
            net.topology, n_targets=2, length=4, parallel_pair=True, seed=seed
        )
        for when, node, pred, args in workload.reports():
            net.run_until(when)
            engine.publish(node, pred, args)
        net.run_all()
        return engine, workload

    @pytest.mark.parametrize("seed", [3, 11, 27])
    def test_exact_trajectories(self, seed):
        engine, workload = self.run_pipeline(seed)
        expected = {(t,) for t in workload.complete_trajectories()}
        assert engine.rows("completetraj") == expected

    def test_parallel_pairs_found(self):
        engine, workload = self.run_pipeline(3)
        pairs = {frozenset(p) for p in engine.rows("parallel")}
        assert pairs == workload.parallel_pairs()
        assert pairs  # the workload plants one parallel pair


class TestShortestPathPipeline:
    @pytest.mark.parametrize("variant", ["h", "j"])
    def test_random_topology(self, variant):
        net = RandomNetwork(18, radius=3.5, seed=33)
        root = net.topology.node_ids[0]
        engine, pred = build_sptree(net, root=root, variant=variant)
        net.run_all()
        depths = nx.single_source_shortest_path_length(nx.Graph(net.topology.adjacency), root)
        rows = visible_rows(engine, pred)
        if variant == "j":
            assert rows == set(depths.items())
        else:
            assert {(y, d) for (_x, y, d) in rows} == set(depths.items())


class TestRandomizedChurn:
    """Randomized publish/retract sequences against the oracle — the
    strongest whole-stack check (Theorem 3 in anger)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_join_with_churn(self, seed):
        program = "j(K, A, B) :- r(K, A), s(K, B)."
        net = GridNetwork(6, seed=seed)
        engine = GPAEngine(parse_program(program), net, strategy="pa").install()
        rng = random.Random(seed)
        live = {}
        for step in range(14):
            net.run_until(net.now + 1.0)
            if live and rng.random() < 0.35:
                (node, pred, args), tid = live.popitem()
                engine.retract(node, pred, args, tid)
            else:
                pred = rng.choice(["r", "s"])
                node = rng.randrange(36)
                args = (rng.randrange(3), f"{pred}{step}")
                tid = engine.publish(node, pred, args)
                live[(node, pred, args)] = tid
        net.run_all()
        db = Database()
        for (node, pred, args) in live:
            db.assert_fact(pred, args)
        evaluate(parse_program(program), db)
        assert engine.rows("j") == db.rows("j")

    @pytest.mark.parametrize("seed", [5, 6])
    def test_negation_with_churn(self, seed):
        net = GridNetwork(6, seed=seed)
        engine = GPAEngine(parse_program(UNCOV), net, strategy="pa").install()
        rng = random.Random(seed)
        live = {}
        for step in range(12):
            net.run_until(net.now + 1.0)
            if live and rng.random() < 0.3:
                (node, args), tid = live.popitem()
                engine.retract(node, "veh", args, tid)
            else:
                kind = rng.choice(["enemy", "friendly"])
                loc = (float(rng.randrange(8)), float(rng.randrange(8)))
                node = net.topology.nearest_node(loc)
                args = (kind, loc, 0)
                if (node, args) in live:
                    continue
                tid = engine.publish(node, "veh", args)
                live[(node, args)] = tid
        net.run_all()
        db = Database()
        for (_node, args) in live:
            db.assert_fact("veh", args)
        evaluate(parse_program(UNCOV), db)
        assert engine.rows("uncov") == db.rows("uncov")
        assert engine.rows("cov") == db.rows("cov")


class TestRecursiveStreams:
    """Positive recursion through *derived streams*: a dwell counter
    (consecutive epochs a vehicle sits at one location) — each derived
    dwell tuple becomes a stream generation at its hash node and feeds
    the next epoch's join (Section III-B)."""

    DWELL = """
        dwell(L, T, 1) :- veh(L, T).
        dwell(L, T1, N + 1) :- veh(L, T1), dwell(L, T, N), T1 = T + 1.
        alert(L) :- dwell(L, _, N), N >= 3.
    """

    def test_dwell_counter(self):
        net = GridNetwork(6, seed=41)
        engine = GPAEngine(
            parse_program(self.DWELL), net, strategy="pa"
        ).install()
        # Location A: present epochs 0,1,2 (dwell reaches 3).
        # Location B: present epochs 0,2 (gap resets the counter).
        schedule = [
            (0, "A"), (0, "B"),
            (1, "A"),
            (2, "A"), (2, "B"),
        ]
        for epoch in range(3):
            net.run_until(float(epoch))
            for t, loc in schedule:
                if t == epoch:
                    node = 7 if loc == "A" else 29
                    engine.publish(node, "veh", (loc, epoch))
        net.run_all()
        db = Database()
        for t, loc in schedule:
            db.assert_fact("veh", (loc, t))
        evaluate(parse_program(self.DWELL), db)
        assert engine.rows("dwell") == db.rows("dwell")
        assert engine.rows("alert") == {("A",)}

    def test_gap_resets(self):
        net = GridNetwork(5, seed=42)
        engine = GPAEngine(
            parse_program(self.DWELL), net, strategy="pa"
        ).install()
        for epoch in (0, 2, 4):  # never consecutive
            net.run_until(float(epoch))
            engine.publish(3, "veh", ("C", epoch))
        net.run_all()
        assert engine.rows("alert") == set()
        assert all(n == 1 for (_l, _t, n) in engine.rows("dwell"))


class TestExamplesRun:
    """The shipped example scripts execute end to end and print what
    ``examples/expected/<name>.txt`` records (byte for byte, under any
    ``PYTHONHASHSEED``)."""

    @pytest.mark.parametrize("name", [
        "quickstart", "vehicle_tracking", "trajectories",
        "shortest_path_tree", "uncertain_tracking", "aggregation",
        "target_tracking", "hotspot_visualization",
        "declarative_routing", "periodic_monitoring",
    ])
    def test_example(self, name, capsys):
        import importlib.util
        import pathlib

        examples = pathlib.Path(__file__).parents[2] / "examples"
        spec = importlib.util.spec_from_file_location(f"example_{name}", examples / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()
        expected = (examples / "expected" / f"{name}.txt").read_text()
        assert capsys.readouterr().out == expected
