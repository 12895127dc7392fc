"""Integration tests for the GPA distributed engine.

Every scenario is validated against the centralized evaluator (the
reference semantics) on the same fact set.
"""

import random

import pytest

import repro
from repro.core.errors import PlanError
from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program
from repro.core.stratify import ProgramClass
from repro.dist.gpa import GPAEngine
from repro.dist.localized import logicj_program
from repro.net.network import GridNetwork, RandomNetwork
from repro.workloads import BattlefieldWorkload

JOIN2 = "j(X, A, B) :- r(X, A), s(X, B)."
JOIN3 = "j(X, A, B, C) :- r(X, A), s(X, B), t(X, C)."
UNCOV = """
    cov(L1, T)  :- veh("enemy", L1, T), veh("friendly", L2, T),
                   dist(L1, L2) <= 50.
    uncov(L, T) :- veh("enemy", L, T), not cov(L, T).
"""
ALL_STRATEGIES = ["pa", "broadcast", "local-storage", "centralized", "centroid"]


def oracle(program_text, facts, registry=None):
    program = parse_program(program_text, registry) if registry else parse_program(program_text)
    db = Database(registry) if registry else Database()
    for pred, args in facts:
        db.assert_fact(pred, args)
    evaluate(program, db, registry)
    return db


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
class TestTwoWayJoin:
    def test_matches_oracle(self, strategy):
        net = GridNetwork(6, seed=1)
        eng = GPAEngine(parse_program(JOIN2), net, strategy=strategy).install()
        rng = random.Random(3)
        facts = []
        for i in range(8):
            for pred in ("r", "s"):
                node = rng.randrange(36)
                args = (i % 3, f"{pred}{i}")
                eng.publish(node, pred, args)
                facts.append((pred, args))
        net.run_all()
        assert eng.rows("j") == oracle(JOIN2, facts).rows("j")

    def test_empty_when_no_matches(self, strategy):
        net = GridNetwork(4, seed=1)
        eng = GPAEngine(parse_program(JOIN2), net, strategy=strategy).install()
        eng.publish(0, "r", (1, "a"))
        eng.publish(15, "s", (2, "b"))
        net.run_all()
        assert eng.rows("j") == set()


class TestThreeWayJoin:
    def test_one_pass_multiway(self):
        net = GridNetwork(6, seed=2)
        eng = GPAEngine(parse_program(JOIN3), net, strategy="pa").install()
        rng = random.Random(5)
        facts = []
        for i in range(6):
            for pred in ("r", "s", "t"):
                node = rng.randrange(36)
                args = (i % 2, f"{pred}{i}")
                eng.publish(node, pred, args)
                facts.append((pred, args))
        net.run_all()
        expected = oracle(JOIN3, facts).rows("j")
        assert eng.rows("j") == expected
        assert expected  # non-trivial workload

    def test_self_join(self):
        net = GridNetwork(5, seed=3)
        program = parse_program("pair(A, B) :- r(X, A), r(X, B), A < B.")
        eng = GPAEngine(program, net, strategy="pa").install()
        facts = []
        for i, node in enumerate([3, 8, 20]):
            eng.publish(node, "r", (1, i))
            facts.append(("r", (1, i)))
        net.run_all()
        assert eng.rows("pair") == oracle(
            "pair(A, B) :- r(X, A), r(X, B), A < B.", facts
        ).rows("pair")


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
class TestNegationAndDeletion:
    def test_blocker_lifecycle(self, strategy):
        net = GridNetwork(6, seed=2)
        eng = GPAEngine(parse_program(UNCOV), net, strategy=strategy).install()
        eng.publish(3, "veh", ("enemy", (10, 10), 3))
        eng.publish(17, "veh", ("enemy", (90, 90), 3))
        net.run_all()
        assert eng.rows("uncov") == {((10, 10), 3), ((90, 90), 3)}
        tid = eng.publish(22, "veh", ("friendly", (12, 12), 3))
        net.run_all()
        assert eng.rows("uncov") == {((90, 90), 3)}
        assert eng.rows("cov") == {((10, 10), 3)}
        eng.retract(22, "veh", ("friendly", (12, 12), 3), tid)
        net.run_all()
        assert eng.rows("uncov") == {((10, 10), 3), ((90, 90), 3)}
        assert eng.rows("cov") == set()

    def test_positive_support_deletion(self, strategy):
        net = GridNetwork(5, seed=4)
        eng = GPAEngine(parse_program(JOIN2), net, strategy=strategy).install()
        tid = eng.publish(7, "r", (1, "a"))
        eng.publish(13, "s", (1, "b"))
        net.run_all()
        assert eng.rows("j") == {(1, "a", "b")}
        eng.retract(7, "r", (1, "a"), tid)
        net.run_all()
        assert eng.rows("j") == set()


@pytest.mark.parametrize("m, epochs, withdraw, seed", [
    (8, 6, False, 4), (8, 6, False, 7), (8, 6, False, 20), (8, 6, False, 45),
    (10, 8, False, 9), (10, 8, False, 17), (8, 6, True, 4), (10, 8, True, 17),
])
def test_battlefield_epochs_match_oracle(m, epochs, withdraw, seed):
    """E6's configurations (``bench_e6_negation.run_epochs``) on cells
    where a one-pass "sub" — a cover arriving — overtakes the
    out-and-back "add" of the detection it cancels on the way to the
    hash node: the sub is stamped later, and the stamp decides."""
    cover = 3.0
    net = GridNetwork(m, seed=seed)
    engine = GPAEngine(
        parse_program(UNCOV.replace("<= 50", f"<= {cover}")), net, strategy="pa"
    ).install()
    live = BattlefieldWorkload(
        net.topology, n_enemy=3, n_friendly=2, epochs=epochs, seed=seed
    ).detections()
    friendly = []
    for when, node, pred, args in live:
        net.run_until(when)
        tid = engine.publish(node, pred, args)
        if args[0] == "friendly":
            friendly.append((node, args, tid))
    net.run_all()
    if withdraw:
        for node, args, tid in friendly[::2]:  # withdraw half the cover
            engine.retract(node, "veh", args, tid)
            live = [d for d in live if (d[1], d[3]) != (node, args)]
        net.run_all()
    assert engine.rows("uncov") == BattlefieldWorkload.uncovered_oracle(live, cover)


class TestDerivedChains:
    def test_two_level_derivation(self):
        program = parse_program(
            """
            m(X) :- r(X, _).
            top(X) :- m(X), s(X, _).
            """
        )
        net = GridNetwork(5, seed=5)
        eng = GPAEngine(program, net, strategy="pa").install()
        eng.publish(2, "r", (1, "a"))
        eng.publish(11, "s", (1, "b"))
        eng.publish(21, "s", (2, "c"))
        net.run_all()
        assert eng.rows("m") == {(1,)}
        assert eng.rows("top") == {(1,)}

    def test_derived_deletion_cascades(self):
        program = parse_program(
            """
            m(X) :- r(X, _).
            top(X) :- m(X), s(X, _).
            """
        )
        net = GridNetwork(5, seed=6)
        eng = GPAEngine(program, net, strategy="pa").install()
        tid = eng.publish(2, "r", (1, "a"))
        eng.publish(11, "s", (1, "b"))
        net.run_all()
        assert eng.rows("top") == {(1,)}
        eng.retract(2, "r", (1, "a"), tid)
        net.run_all()
        assert eng.rows("m") == set()
        assert eng.rows("top") == set()

    def test_alternative_derivations_survive(self):
        program = parse_program("m(X) :- r(X, _). m(X) :- s(X, _).")
        net = GridNetwork(5, seed=7)
        eng = GPAEngine(program, net, strategy="pa").install()
        tid = eng.publish(2, "r", (1, "a"))
        eng.publish(11, "s", (1, "b"))
        net.run_all()
        eng.retract(2, "r", (1, "a"), tid)
        net.run_all()
        assert eng.rows("m") == {(1,)}


class TestSlidingWindows:
    def test_old_tuples_do_not_join(self):
        net = GridNetwork(5, seed=8)
        eng = GPAEngine(
            parse_program(JOIN2), net, strategy="pa", window=5.0
        ).install()
        eng.publish(3, "r", (1, "old"))
        net.run_until(net.now + 60.0)   # r's tuple ages far out of range
        eng.publish(18, "s", (1, "new"))
        net.run_all()
        assert eng.rows("j") == set()

    def test_within_window_joins(self):
        net = GridNetwork(5, seed=8)
        eng = GPAEngine(
            parse_program(JOIN2), net, strategy="pa", window=100.0
        ).install()
        eng.publish(3, "r", (1, "old"))
        net.run_until(net.now + 30.0)
        eng.publish(18, "s", (1, "new"))
        net.run_all()
        assert eng.rows("j") == {(1, "old", "new")}

    def test_replicas_keep_the_source_terms(self, monkeypatch):
        # A replica copies its sender's normalized arguments: the same
        # term objects, never run through to_term again, so an int and a
        # float spelling of one value each reach every window as they
        # were published.
        from repro.streams import tuples

        normalized = []
        real = tuples.to_term

        def to_term(value):
            normalized.append(value)
            return real(value)

        monkeypatch.setattr(tuples, "to_term", to_term)
        net = GridNetwork(5, seed=8)
        eng = GPAEngine(parse_program(JOIN2), net, strategy="pa").install()
        eng.publish(3, "r", (1, 1.0))
        net.run_all()
        assert normalized == [1, 1.0]  # at the source, once
        source = next(iter(eng.runtimes[3].windows["r"]))
        replicas = [
            t for rt in eng.runtimes.values() if rt.node.id != 3
            for t in rt.windows.get("r", ())
        ]
        assert replicas
        for replica in replicas:
            assert replica is not source
            assert replica.tuple_id is source.tuple_id
            assert all(a is b for a, b in zip(replica.args, source.args))
            assert [type(a.value) for a in replica.args] == [int, float]

    def test_memory_reclaimed_by_expiry(self):
        net = GridNetwork(5, seed=8)
        eng = GPAEngine(
            parse_program(JOIN2), net, strategy="pa", window=2.0
        ).install()
        for i in range(5):
            eng.publish(i, "r", (i, "x"))
        net.run_all()
        peak = sum(eng.memory_report(include_derived=False).values())
        net.run_until(net.now + 100.0)
        eng.expire_all()
        later = sum(eng.memory_report(include_derived=False).values())
        assert later < peak

    def test_parked_partials_reclaimed_in_pipelined_mode(self):
        """The sliding-window memory model holds for parked partials
        too: with a finite window, 40 epochs of publishes (some
        retracted, after their joins and inside the window) leave no
        more partials parked in the second half than in the first, and
        the rows and derivations of barrier mode."""

        def run(mode):
            net = GridNetwork(6, seed=5)
            eng = GPAEngine(
                parse_program(JOIN2), net, strategy="pa", window=2.0, mode=mode
            ).install()
            assert eng.mode == mode
            rng = random.Random(7)
            resident = []
            for epoch in range(40):
                net.run_until(epoch * 5.0)
                published = []
                for i in range(4):
                    pred = "rs"[i % 2]
                    node, args = rng.randrange(36), (rng.randrange(2), f"{pred}{epoch}.{i}")
                    published.append((node, pred, args, eng.publish(node, pred, args)))
                if epoch % 3 == 0:
                    net.run_until(epoch * 5.0 + 1.0)
                    node, pred, args, tid = published[0]
                    eng.retract(node, pred, args, tid)
                net.run_until(epoch * 5.0 + 4.9)
                resident.append(sum(eng.memory_report(include_derived=False).values()))
            net.run_all()
            return eng, net, resident

        barrier, _, window_tuples = run("barrier")
        eng, net, resident = run("pipelined")
        assert eng.rows("j") == barrier.rows("j") and eng.rows("j")
        assert eng.derivation_store() == barrier.derivation_store()
        # Same replicas in both modes; what is resident beyond them is
        # parked.  An entry goes when the next replica of its predicate
        # walks its node's list (a row in six per publish), so a few
        # epochs' worth stay resident — 30 are parked per epoch — where
        # without reclaiming there were 26 more every epoch, 1 044 at
        # the end.
        parked = [r - w for r, w in zip(resident, window_tuples)]
        assert parked[0] == 30
        assert parked[39] <= parked[19] and max(parked) <= 5 * parked[0]
        # A retraction's subtractions stay as tombstones in both modes
        # (a retro token subtracts more than was ever added), counted
        # with the derived tables until the same horizon passes.
        def tombstones(engine):
            return sum(rt.derived.tombstones() for rt in engine.runtimes.values())

        assert tombstones(eng) >= tombstones(barrier) > 0
        assert sum(eng.memory_report().values()) == (
            sum(eng.memory_report(include_derived=False).values())
            + sum(len(rt.derived) for rt in eng.runtimes.values())
            + tombstones(eng)
        )
        net.run_until(net.now + 10.0)
        eng.expire_all()
        assert not any(rt.parked_seen for rt in eng.runtimes.values())
        assert sum(eng.memory_report(include_derived=False).values()) == 0
        assert tombstones(eng) == 0


class TestRobustness:
    def test_result_completeness_under_loss(self):
        """PA's replication tolerates moderate loss: most results
        survive (the paper's fault-tolerance claim, tested at 10%)."""
        def run(loss):
            net = GridNetwork(6, seed=10, loss_rate=loss)
            eng = GPAEngine(parse_program(JOIN2), net, strategy="pa").install()
            rng = random.Random(11)
            facts = []
            for i in range(10):
                for pred in ("r", "s"):
                    args = (i % 3, f"{pred}{i}")
                    eng.publish(rng.randrange(36), pred, args)
                    facts.append((pred, args))
            net.run_all()
            expected = oracle(JOIN2, facts).rows("j")
            return len(eng.rows("j") & expected), len(expected)

        got0, total0 = run(0.0)
        assert got0 == total0
        # Every result still crosses one multi-hop join pass, so 10%
        # per-hop loss costs a sizable fraction; a meaningful share of
        # results must survive thanks to the replicated storage.
        got10, total10 = run(0.10)
        assert got10 >= 0.2 * total10

    def test_clock_skew_tolerated(self):
        net = GridNetwork(5, seed=12, clock_skew=0.05)
        eng = GPAEngine(parse_program(JOIN2), net, strategy="pa").install()
        facts = []
        rng = random.Random(13)
        for i in range(8):
            for pred in ("r", "s"):
                args = (i % 2, f"{pred}{i}")
                eng.publish(rng.randrange(25), pred, args)
                facts.append((pred, args))
        net.run_all()
        assert eng.rows("j") == oracle(JOIN2, facts).rows("j")


class TestRandomNetworks:
    def test_join_on_virtual_grid(self):
        net = RandomNetwork(25, radius=3.5, seed=14)
        eng = GPAEngine(parse_program(JOIN2), net, strategy="pa").install()
        rng = random.Random(15)
        ids = net.topology.node_ids
        facts = []
        for i in range(8):
            for pred in ("r", "s"):
                args = (i % 3, f"{pred}{i}")
                eng.publish(rng.choice(ids), pred, args)
                facts.append((pred, args))
        net.run_all()
        assert eng.rows("j") == oracle(JOIN2, facts).rows("j")


class TestEngineValidation:
    def test_install_required(self):
        net = GridNetwork(3)
        eng = GPAEngine(parse_program(JOIN2), net, strategy="pa")
        with pytest.raises(repro.NetworkError):
            eng.publish(0, "r", (1, "a"))

    def test_reports_before_install(self):
        eng = GPAEngine(parse_program(JOIN2), GridNetwork(3), strategy="pa")
        assert eng.delivery_report() == {"delivered": 0, "gave_up": 0, "reason": {}}
        assert eng.latency_report() == {"count": 0, "mean": 0.0, "max": 0.0}

    @pytest.mark.parametrize("mode", ["barrier", "pipelined"])
    def test_xy_stratified_program_refused(self, mode):
        """logicJ recurses through negation stage by stage: GPA cannot
        order a blocker against the fact it blocks, so the engine
        refuses it at construction and names the engine that can."""
        with pytest.raises(PlanError, match="LocalizedEngine"):
            GPAEngine(logicj_program(), GridNetwork(4, seed=4), strategy="pa", mode=mode)
        engine = GPAEngine(logicj_program(), GridNetwork(4, seed=4), strategy="pa",
                           mode=mode, allow_local_nonrecursive=True)
        assert engine.plan.analysis.program_class is ProgramClass.XY_STRATIFIED

    def test_retract_from_wrong_node(self):
        net = GridNetwork(3)
        eng = GPAEngine(parse_program(JOIN2), net, strategy="pa").install()
        tid = eng.publish(0, "r", (1, "a"))
        with pytest.raises(repro.NetworkError):
            eng.retract(1, "r", (1, "a"), tid)

    @pytest.mark.parametrize("mode", ["barrier", "pipelined"])
    def test_aggregates_fold_valuations_not_derivations(self, mode):
        """r(1, a) and r(1, b) are one valuation X = 1: c(2) and s(3),
        as evaluate() has them, homed with their two valuations."""
        net = GridNetwork(3)
        eng = GPAEngine("c(count(_)) :- r(X, _). s(sum(X)) :- r(X, _).",
                        net, mode=mode).install()
        for node, args in enumerate([(1, "a"), (1, "b"), (2, "a")]):
            eng.publish(node, "r", args)
        net.run_all()
        assert eng.rows("c") == {(2,)} and eng.rows("s") == {(3,)}
        store = eng.derivation_store()
        assert sorted(len(ds) for (p, _a), ds in store.items() if p == "c#r0") == [1, 2]
        homes = {home.id for home, _p, _a, _f in eng._visible("c#r0")}
        assert len(homes) == 1  # the ungrouped group has one home

    def test_unstratifiable_rejected(self):
        net = GridNetwork(3)
        with pytest.raises(repro.PlanError):
            GPAEngine(parse_program("w(X) :- m(X, Y), not w(Y)."), net)

    def test_program_text_accepted(self):
        net = GridNetwork(3)
        eng = GPAEngine(JOIN2, net, strategy="pa").install()
        eng.publish(0, "r", (1, "a"))
        net.run_all()
