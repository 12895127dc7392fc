"""Tests for centralized bottom-up evaluation (the reference semantics)."""

import itertools

import pytest

from repro.core import eval as core_eval
from repro.core.builtins import BuiltinRegistry, DEFAULT_REGISTRY
from repro.core.errors import EvaluationError, ProgramError
from repro.core.eval import (
    BottomUpEvaluator,
    Database,
    Relation,
    evaluate,
    order_body,
)
from repro.core.incremental import IncrementalEvaluator
from repro.core.parser import parse_program, parse_rule
from repro.core.plan import seed_engine
from repro.core.stratify import ProgramClass, classify
from repro.core.terms import Constant

LOGICH = """
    h(a, a, 0).
    h(a, X, 1) :- g(a, X).
    hp(Y, D + 1) :- h(_, Y, Dp), D + 1 > Dp, h(_, X, D), g(X, Y).
    h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
"""


class TestRelation:
    def test_add_and_contains(self):
        rel = Relation("r")
        args = (Constant(1), Constant(2))
        assert rel.add(args)
        assert not rel.add(args)
        assert args in rel
        assert len(rel) == 1

    def test_discard(self):
        rel = Relation("r")
        args = (Constant(1),)
        rel.add(args)
        assert rel.discard(args)
        assert not rel.discard(args)
        assert len(rel) == 0

    def test_index_stays_consistent(self):
        rel = Relation("r")
        a = (Constant(1), Constant("x"))
        b = (Constant(1), Constant("y"))
        rel.add(a)
        # Force index creation on position 0, then mutate.
        from repro.core.terms import Substitution, Variable

        pattern = (Constant(1), Variable("Y"))
        assert set(rel.candidates(pattern, Substitution())) == {a}
        rel.add(b)
        assert set(rel.candidates(pattern, Substitution())) == {a, b}
        rel.discard(a)
        assert set(rel.candidates(pattern, Substitution())) == {b}


class TestDatabase:
    def test_assert_coerces(self):
        db = Database()
        db.assert_fact("p", (1, "a", (2, 3)))
        assert db.rows("p") == {(1, "a", (2, 3))}

    def test_duplicate_insert(self):
        db = Database()
        assert db.assert_fact("p", (1,))
        assert not db.assert_fact("p", (1,))

    def test_retract(self):
        db = Database()
        db.assert_fact("p", (1,))
        assert db.retract_fact("p", (1,))
        assert db.count("p") == 0

    def test_copy_is_deep(self):
        db = Database()
        db.assert_fact("p", (1,))
        clone = db.copy()
        clone.assert_fact("p", (2,))
        assert db.count("p") == 1 and clone.count("p") == 2


class TestOrderBody:
    def test_builtin_deferred_until_bound(self):
        rule = parse_rule("p(X, Y) :- X < Y, q(X), r(Y).")
        ordered = order_body(rule)
        names = [getattr(lit, "name", getattr(lit, "predicate", "?")) for lit in ordered]
        assert names.index("<") > names.index("q")
        assert names.index("<") > names.index("r")

    def test_negation_deferred(self):
        rule = parse_rule("p(X) :- not r(X), q(X).")
        ordered = order_body(rule)
        assert not ordered[0].negated and ordered[1].negated

    def test_assignment_as_early_as_possible(self):
        rule = parse_rule("p(X, D1) :- q(X, D), D1 = D + 1, r(X).")
        ordered = order_body(rule)
        kinds = [getattr(lit, "name", None) or lit.predicate for lit in ordered]
        assert kinds == ["q", "=", "r"]

    def test_assignment_waits_for_arithmetic_operands(self):
        # Regression: T1 = T + 1 must not run before T binds — the
        # engine cannot invert arithmetic even with T1 already bound.
        rule = parse_rule("p(T1, N) :- a(T1), b(T, N), T1 = T + 1.")
        ordered = order_body(rule)
        kinds = [getattr(lit, "name", None) or lit.predicate for lit in ordered]
        assert kinds.index("=") > kinds.index("b")

    def test_assignment_as_equality_filter(self):
        db = Database()
        db.assert_fact("a", (2,))
        db.assert_fact("b", (1,))
        db.assert_fact("b", (7,))
        evaluate(parse_program("p(T1, T) :- a(T1), b(T), T1 = T + 1."), db)
        assert db.rows("p") == {(2, 1)}

    @staticmethod
    def computed(rule_text):
        db = Database()
        db.assert_fact("a", (1,))
        db.assert_fact("b", (2,))
        evaluate(parse_program(rule_text), db)
        return db.rows("q")

    @pytest.mark.parametrize("rule_text", [
        "q(X) :- b(X + 1), a(X).",
        "q(X) :- a(X), b(X + 1).",
        # The assignment binds Z once a(X) has bound X.
        "q(X) :- b(Z + 1), a(X), Z = X * 1.",
    ])
    def test_a_computed_argument_waits_for_its_variables(self, rule_text):
        # No number matches X + 1 before X is bound: in either textual
        # order b(X + 1) is joined after a(X), and q(1) is derived.
        ordered = order_body(parse_rule(rule_text))
        names = [getattr(lit, "name", None) or lit.predicate for lit in ordered]
        assert names.index("b") > names.index("a")
        assert self.computed(rule_text) == {(1,)}

    def test_a_function_term_still_binds(self):
        rule = parse_rule("q(X) :- b(f(X)), a(X).")
        assert [lit.predicate for lit in order_body(rule)] == ["b", "a"]
        db = Database()
        db.assert_fact("a", (1,))
        db.assert_atom(parse_rule("b(f(1)).").head)
        evaluate(parse_program("q(X) :- b(f(X)), a(X)."), db)
        assert db.rows("q") == {(1,)}

    @pytest.mark.parametrize("rule_text", [
        "q(X) :- b(X + 1).",
        "q(X) :- b(X, X + 1).",
        "q(X) :- b(X + 1, Y), c(Y + 1, X).",
    ])
    def test_a_computed_argument_nothing_binds_is_refused(self, rule_text):
        with pytest.raises(ProgramError, match="cannot order body"):
            order_body(parse_rule(rule_text))
        with pytest.raises(ProgramError, match="cannot order body"):
            self.computed(rule_text)


class TestNonRecursive:
    def test_projection(self):
        db = Database()
        db.assert_fact("q", (1, 2))
        db.assert_fact("q", (3, 4))
        evaluate(parse_program("p(X) :- q(X, _)."), db)
        assert db.rows("p") == {(1,), (3,)}

    def test_join(self):
        db = Database()
        db.assert_fact("e", ("a", "b"))
        db.assert_fact("e", ("b", "c"))
        evaluate(parse_program("p(X, Z) :- e(X, Y), e(Y, Z)."), db)
        assert db.rows("p") == {("a", "c")}

    def test_selection_with_comparison(self):
        db = Database()
        for i in range(5):
            db.assert_fact("n", (i,))
        evaluate(parse_program("big(X) :- n(X), X >= 3."), db)
        assert db.rows("big") == {(3,), (4,)}

    def test_multiple_rules_union(self):
        db = Database()
        db.assert_fact("a", (1,))
        db.assert_fact("b", (2,))
        evaluate(parse_program("u(X) :- a(X). u(X) :- b(X)."), db)
        assert db.rows("u") == {(1,), (2,)}

    def test_program_facts_loaded(self):
        db = Database()
        evaluate(parse_program("e(x, y). p(A) :- e(A, _)."), db)
        assert db.rows("p") == {("x",)}

    def test_cross_product(self):
        db = Database()
        db.assert_fact("a", (1,))
        db.assert_fact("a", (2,))
        db.assert_fact("b", ("x",))
        evaluate(parse_program("c(X, Y) :- a(X), b(Y)."), db)
        assert db.rows("c") == {(1, "x"), (2, "x")}


class TestNegation:
    def test_set_difference(self):
        db = Database()
        for i in range(4):
            db.assert_fact("all", (i,))
        db.assert_fact("bad", (1,))
        db.assert_fact("bad", (3,))
        evaluate(parse_program("good(X) :- all(X), not bad(X)."), db)
        assert db.rows("good") == {(0,), (2,)}

    def test_uncovered_vehicle_example(self):
        """Example 1 from the paper."""
        program = parse_program(
            """
            cov(L1, T)  :- veh("enemy", L1, T), veh("friendly", L2, T),
                           dist(L1, L2) <= 50.
            uncov(L, T) :- veh("enemy", L, T), not cov(L, T).
            """
        )
        db = Database()
        db.assert_fact("veh", ("enemy", (10, 10), 3))
        db.assert_fact("veh", ("enemy", (90, 90), 3))
        db.assert_fact("veh", ("friendly", (12, 12), 3))
        evaluate(program, db)
        assert db.rows("uncov") == {((90, 90), 3)}
        assert db.rows("cov") == {((10, 10), 3)}

    def test_negation_with_anonymous(self):
        db = Database()
        db.assert_fact("node", ("a",))
        db.assert_fact("node", ("b",))
        db.assert_fact("e", ("a", "b"))
        evaluate(parse_program("sink(X) :- node(X), not e(X, _)."), db)
        assert db.rows("sink") == {("b",)}

    def test_double_negation_strata(self):
        db = Database()
        db.assert_fact("n", (1,))
        db.assert_fact("n", (2,))
        db.assert_fact("p", (1,))
        program = parse_program(
            """
            q(X) :- n(X), not p(X).
            r(X) :- n(X), not q(X).
            """
        )
        evaluate(program, db)
        assert db.rows("q") == {(2,)}
        assert db.rows("r") == {(1,)}


class TestRecursion:
    def test_transitive_closure(self):
        db = Database()
        for u, v in [("a", "b"), ("b", "c"), ("c", "d")]:
            db.assert_fact("e", (u, v))
        program = parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).")
        evaluate(program, db)
        assert ("a", "d") in db.rows("t")
        assert len(db.rows("t")) == 6

    def test_cycle_terminates(self):
        db = Database()
        for u, v in [("a", "b"), ("b", "a")]:
            db.assert_fact("e", (u, v))
        program = parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).")
        evaluate(program, db)
        assert db.rows("t") == {("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}

    def test_same_generation(self):
        db = Database()
        for p, c in [("r", "a"), ("r", "b"), ("a", "x"), ("b", "y")]:
            db.assert_fact("par", (p, c))
        program = parse_program(
            """
            sg(X, Y) :- par(P, X), par(P, Y).
            sg(X, Y) :- par(P1, X), par(P2, Y), sg(P1, P2).
            """
        )
        evaluate(program, db)
        assert ("x", "y") in db.rows("sg")

    def test_nonlinear_recursion(self):
        db = Database()
        for u, v in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]:
            db.assert_fact("e", (u, v))
        program = parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), t(Y, Z).")
        evaluate(program, db)
        assert len(db.rows("t")) == 10

    def test_recursion_feeding_nonrecursive_same_stratum(self):
        # Regression test: deltas must flow to non-recursive rules in the
        # same stratum (traj -> completetraj -> parallel pattern).
        db = Database()
        for u, v in [("a", "b"), ("b", "c")]:
            db.assert_fact("e", (u, v))
        program = parse_program(
            """
            t(X, Y) :- e(X, Y).
            t(X, Z) :- t(X, Y), e(Y, Z).
            pairs(X, Y) :- t(X, Y).
            """
        )
        evaluate(program, db)
        assert db.rows("pairs") == db.rows("t")

    def test_function_symbol_recursion(self):
        db = Database()
        db.assert_fact("start", (0,))
        program = parse_program(
            """
            chain(s(0), 1) :- start(0).
            chain(s(L), N + 1) :- chain(L, N), N < 4.
            """
        )
        evaluate(program, db)
        assert db.count("chain") == 4


class TestAggregates:
    def test_min(self):
        db = Database()
        for y, d in [("b", 1), ("b", 3), ("c", 2)]:
            db.assert_fact("path", (y, d))
        evaluate(parse_program("shortest(Y, min(D)) :- path(Y, D)."), db)
        assert db.rows("shortest") == {("b", 1), ("c", 2)}

    def test_count_sum_avg_max(self):
        db = Database()
        for v in [1, 2, 3, 4]:
            db.assert_fact("obs", ("s1", v))
        program = parse_program(
            """
            stats(S, count(_), sum(V), avg(V), max(V)) :- obs(S, V).
            """
        )
        evaluate(program, db)
        assert db.rows("stats") == {("s1", 4, 10, 2.5, 4)}

    def test_aggregate_groups(self):
        db = Database()
        db.assert_fact("obs", ("a", 1))
        db.assert_fact("obs", ("a", 2))
        db.assert_fact("obs", ("b", 5))
        evaluate(parse_program("c(S, count(_)) :- obs(S, V)."), db)
        assert db.rows("c") == {("a", 2), ("b", 1)}

    def test_aggregate_feeding_rule(self):
        db = Database()
        db.assert_fact("obs", ("a", 1))
        db.assert_fact("obs", ("b", 5))
        program = parse_program(
            """
            m(S, max(V)) :- obs(S, V).
            alarm(S) :- m(S, V), V >= 3.
            """
        )
        evaluate(program, db)
        assert db.rows("alarm") == {("b",)}

    def test_count_distinct_valuations(self):
        # Set semantics: identical tuples collapse before aggregation.
        db = Database()
        db.assert_fact("obs", ("a", 1))
        evaluate(parse_program("c(count(_)) :- obs(S, V), obs(S, V)."), db)
        assert db.rows("c") == {(1,)}

    def test_valuations_are_derived_facts(self):
        # Two valuations of X, three derivations: the row counts the
        # valuations and holds the fold's one derivation.
        db = Database()
        for args in [(1, "a"), (1, "b"), (2, "a")]:
            db.assert_fact("r", args)
        evaluate(parse_program("c(count(_)) :- r(X, _). s(sum(X)) :- r(X, _)."), db)
        assert db.rows("c") == {(2,)} and db.rows("s") == {(3,)}
        assert db.rows("c#r0") == {(1,), (2,)}
        store = db.derivations.snapshot()
        assert sorted(len(store[("c#r0", args)]) for args in db.relation("c#r0")) == [1, 2]
        (fold,) = store[("c", (Constant(2),))]
        assert (fold.rule_id, fold.body_facts) == (0, ())

    def test_every_order_of_a_float_group_folds_one_row(self):
        text = "t(sum(V), avg(V)) :- r(V)."
        db = Database()
        for v in (0.1, 0.2, 0.3):
            db.assert_fact("r", (v,))
        evaluate(parse_program(text), db)
        for order in itertools.permutations((0.1, 0.2, 0.3)):
            ev = IncrementalEvaluator(parse_program(text))
            for v in order:
                ev.insert("r", (v,))
            assert ev.rows("t") == db.rows("t") == {(0.6, 0.6 / 3)}, order

    def test_aggregate_in_a_staged_component(self):
        # XY-stratified: each stage's groups are complete when the rule
        # fires at that stage, so the row is final.
        db = Database()
        db.assert_fact("root", (1,))
        for args in [(1, 2, 3), (1, 2, 5), (2, 3, 1)]:
            db.assert_fact("e", args)
        evaluate(parse_program("""
            h(X, 0) :- root(X).
            best(Y, min(D), T + 1) :- h(X, T), e(X, Y, D), not done(Y, T).
            h(Y, T) :- best(Y, D, T).
            done(Y, T) :- h(Y, T).
        """), db)
        assert db.rows("best") == {(2, 3, 1), (3, 1, 2)}
        assert db.rows("h") == {(1, 0), (2, 1), (3, 2)}


class TestXYEvaluation:
    def graph_db(self, edges):
        db = Database()
        for u, v in edges:
            db.assert_fact("g", (u, v))
            db.assert_fact("g", (v, u))
        return db

    def test_logich_line(self):
        db = self.graph_db([("a", "b"), ("b", "c"), ("c", "d")])
        evaluate(parse_program(LOGICH), db)
        assert db.rows("h") == {
            ("a", "a", 0), ("a", "b", 1), ("b", "c", 2), ("c", "d", 3)
        }

    def test_logich_diamond(self):
        db = self.graph_db([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        evaluate(parse_program(LOGICH), db)
        h = db.rows("h")
        # d reachable at depth 2 via both parents (paper: all BFS edges).
        assert ("b", "d", 2) in h and ("c", "d", 2) in h
        assert not any(row[1] == "d" and row[2] != 2 for row in h)

    def test_logich_with_cycle(self):
        db = self.graph_db([("a", "b"), ("b", "c"), ("c", "a")])
        evaluate(parse_program(LOGICH), db)
        depths = {row[1]: row[2] for row in db.rows("h")}
        assert depths == {"a": 0, "b": 1, "c": 1}

    def test_positive_mutual_recursion_beside_the_staged_component(self):
        # Was NetworkXUnfeasible: the even/odd 2-cycle is a recursive
        # component without negation, so it is not staged — it has to be
        # saturated as one positive SCC around logicH's component.
        program = parse_program(LOGICH + """
            even(0).
            odd(Y) :- even(X), succ(X, Y).
            even(Y) :- odd(X), succ(X, Y).
        """)
        assert classify(program).program_class == ProgramClass.XY_STRATIFIED

        def run():
            db = self.graph_db([("a", "b"), ("b", "c"), ("c", "d")])
            for i in range(9):
                db.assert_fact("succ", (i, i + 1))
            evaluate(program, db)
            return (
                {p: db.rows(p) for p in db.predicates()},
                db.derivations.snapshot(),
            )

        rows, derivations = run()
        assert rows["even"] == {(i,) for i in range(0, 10, 2)}
        assert rows["odd"] == {(i,) for i in range(1, 10, 2)}
        assert rows["h"] == {
            ("a", "a", 0), ("a", "b", 1), ("b", "c", 2), ("c", "d", 3)
        }
        with seed_engine():
            assert run() == (rows, derivations)

    def test_xy_evaluator_accepts_stratified(self):
        db = Database()
        db.assert_fact("q", (1,))
        BottomUpEvaluator(parse_program("p(X) :- q(X).")).evaluate(db)
        assert db.rows("p") == {(1,)}

    def test_counter_program(self):
        program = parse_program(
            """
            cnt(0).
            cnt(T + 1) :- cnt(T), not stop(T + 1).
            stop(T + 1) :- cnt(T), bound(B), T + 1 > B.
            """
        )
        db = Database()
        db.assert_fact("bound", (3,))
        evaluate(program, db)
        assert db.rows("cnt") == {(0,), (1,), (2,), (3,)}


class TestDerivationRecording:
    def test_derivations_recorded(self):
        db = Database()
        db.assert_fact("e", ("a", "b"))
        program = parse_program("p(X, Y) :- e(X, Y).")
        evaluate(program, db)
        fact = ("p", (Constant("a"), Constant("b")))
        assert db.derivations.has_fact(fact)

    def test_multiple_derivations(self):
        db = Database()
        db.assert_fact("e1", (1,))
        db.assert_fact("e2", (1,))
        program = parse_program("p(X) :- e1(X). p(X) :- e2(X).")
        evaluate(program, db)
        fact = ("p", (Constant(1),))
        assert len(db.derivations.derivations_of(fact)) == 2


class TestErrors:
    @pytest.mark.parametrize("text", [
        "win(X) :- move(X, Y), not win(Y).",
        "p(X) :- q(X), not r(X). r(X) :- q(X), not p(X).",
        "t(X, Y) :- e(X, Y), not t(Y, X).",
        "c(count(X)) :- d(X). d(X) :- e(X), not c(X).",
    ])
    def test_unstratifiable_rejected(self, text):
        program = parse_program(text)
        with pytest.raises(ProgramError) as via_evaluate:
            evaluate(program, Database())
        with pytest.raises(ProgramError) as via_class:
            BottomUpEvaluator(program)
        assert str(via_class.value) == str(via_evaluate.value)
        assert type(via_class.value) is type(via_evaluate.value)

    def test_evaluator_runs_xy(self):
        db = TestXYEvaluation().graph_db([("a", "b"), ("b", "c"), ("c", "d")])
        BottomUpEvaluator(parse_program(LOGICH)).evaluate(db)
        assert db.rows("h") == {
            ("a", "a", 0), ("a", "b", 1), ("b", "c", 2), ("c", "d", 3)
        }

    def test_evaluate_classifies_once(self, monkeypatch):
        calls = []
        real = core_eval.classify
        monkeypatch.setattr(core_eval, "classify",
                            lambda program: calls.append(program) or real(program))
        evaluate(parse_program(LOGICH))
        assert len(calls) == 1


class TestFixpointGuard:
    @pytest.mark.parametrize("beside", ["", LOGICH])
    def test_nonterminating_function_recursion_caught(self, beside, monkeypatch):
        # Term construction never stops: the guard turns the hang into
        # an error.  (Two constructors keep the term depth logarithmic
        # in the fact count, so the guard fires before deep nesting.)
        # Beside a staged component the semi-naive one is guarded too.
        program = parse_program(
            "num(z). num(s(N)) :- num(N). num(t(N)) :- num(N)." + beside
        )
        monkeypatch.setattr(core_eval, "_MAX_FACTS", 500)
        db = Database()
        with pytest.raises(EvaluationError, match="exceeded 500 facts"):
            BottomUpEvaluator(program).evaluate(db)

    def test_guard_allows_terminating_programs(self, monkeypatch):
        program = parse_program(
            "chain(s(0), 1) :- start(0). chain(s(L), N + 1) :- chain(L, N), N < 4."
        )
        db = Database()
        db.assert_fact("start", (0,))
        monkeypatch.setattr(core_eval, "_MAX_FACTS", 500)
        BottomUpEvaluator(program).evaluate(db)
        assert db.count("chain") == 4
