"""Tests for annotated/probabilistic deduction (the paper's Extensions)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import annotated
from repro.core.annotated import (
    AnnotatedDatabase,
    AnnotatedEvaluator,
    annotated_evaluate,
)
from repro.core.errors import EvaluationError, ProgramError
from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program

from tests.core.test_parser_properties import predicates, safe_rules


class TestAnnotatedDatabase:
    def test_assert_and_read(self):
        db = AnnotatedDatabase()
        db.assert_fact("obs", (1,), 0.8)
        assert db.confidence("obs", (1,)) == 0.8
        assert db.rows("obs") == {(1,): 0.8}

    def test_missing_fact_zero(self):
        assert AnnotatedDatabase().confidence("obs", (1,)) == 0.0

    def test_reassert_keeps_max(self):
        db = AnnotatedDatabase()
        db.assert_fact("obs", (1,), 0.5)
        db.assert_fact("obs", (1,), 0.3)
        assert db.confidence("obs", (1,)) == 0.5
        db.assert_fact("obs", (1,), 0.9)
        assert db.confidence("obs", (1,)) == 0.9

    def test_confidence_range_checked(self):
        db = AnnotatedDatabase()
        with pytest.raises(EvaluationError):
            db.assert_fact("obs", (1,), 0.0)
        with pytest.raises(EvaluationError):
            db.assert_fact("obs", (1,), 1.5)


class TestConjunction:
    def test_product(self):
        db = AnnotatedDatabase()
        db.assert_fact("a", (1,), 0.8)
        db.assert_fact("b", (1,), 0.5)
        annotated_evaluate(parse_program("c(X) :- a(X), b(X)."), db)
        assert db.confidence("c", (1,)) == pytest.approx(0.4)

    def test_min(self):
        db = AnnotatedDatabase()
        db.assert_fact("a", (1,), 0.8)
        db.assert_fact("b", (1,), 0.5)
        annotated_evaluate(
            parse_program("c(X) :- a(X), b(X)."), db, conjunction="min"
        )
        assert db.confidence("c", (1,)) == pytest.approx(0.5)

    def test_program_facts_certain(self):
        db = annotated_evaluate(parse_program("base(1). d(X) :- base(X)."))
        assert db.confidence("d", (1,)) == 1.0


class TestDisjunction:
    def test_max_takes_best_derivation(self):
        db = AnnotatedDatabase()
        db.assert_fact("a", (1,), 0.3)
        db.assert_fact("b", (1,), 0.7)
        annotated_evaluate(parse_program("c(X) :- a(X). c(X) :- b(X)."), db)
        assert db.confidence("c", (1,)) == pytest.approx(0.7)

    def test_noisy_or_corroborates(self):
        db = AnnotatedDatabase()
        db.assert_fact("a", (1,), 0.5)
        db.assert_fact("b", (1,), 0.5)
        annotated_evaluate(
            parse_program("c(X) :- a(X). c(X) :- b(X)."), db, disjunction="noisy-or"
        )
        assert db.confidence("c", (1,)) == pytest.approx(0.75)


class TestRecursion:
    def test_path_confidence_decays(self):
        db = AnnotatedDatabase()
        db.assert_fact("e", ("a", "b"), 0.9)
        db.assert_fact("e", ("b", "c"), 0.9)
        annotated_evaluate(
            parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z)."), db
        )
        assert db.confidence("t", ("a", "c")) == pytest.approx(0.81)

    def test_cycle_converges(self):
        db = AnnotatedDatabase()
        db.assert_fact("e", ("a", "b"), 0.9)
        db.assert_fact("e", ("b", "a"), 0.9)
        annotated_evaluate(
            parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z)."), db
        )
        # Going around the cycle only lowers confidence, so max keeps
        # the direct-path values.
        assert db.confidence("t", ("a", "b")) == pytest.approx(0.9)
        assert db.confidence("t", ("a", "a")) == pytest.approx(0.81)

    def test_round_cap_raises(self, monkeypatch):
        # A 3-chain needs three rounds to settle; capped at two it fails
        # loudly instead of returning a half-computed closure.
        monkeypatch.setattr(annotated, "_MAX_ROUNDS", 2)
        db = AnnotatedDatabase()
        for u, v in [("a", "b"), ("b", "c"), ("c", "d")]:
            db.assert_fact("e", (u, v), 0.9)
        with pytest.raises(EvaluationError, match="did not converge in 2 rounds"):
            annotated_evaluate(
                parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z)."), db
            )

    def test_best_path_wins(self):
        db = AnnotatedDatabase()
        db.assert_fact("e", ("a", "b"), 0.9)
        db.assert_fact("e", ("b", "d"), 0.9)
        db.assert_fact("e", ("a", "d"), 0.5)
        annotated_evaluate(
            parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z)."), db
        )
        assert db.confidence("t", ("a", "d")) == pytest.approx(0.81)


class TestNegationAndBuiltins:
    def test_negation_certainty_semantics(self):
        db = AnnotatedDatabase()
        db.assert_fact("n", (1,), 1.0)
        db.assert_fact("n", (2,), 1.0)
        db.assert_fact("bad", (1,), 0.6)
        annotated_evaluate(parse_program("ok(X) :- n(X), not bad(X)."), db)
        assert db.confidence("ok", (2,)) == 1.0
        assert db.confidence("ok", (1,)) == 0.0

    def test_builtins_pass_through(self):
        db = AnnotatedDatabase()
        db.assert_fact("obs", (3,), 0.8)
        db.assert_fact("obs", (9,), 0.9)
        annotated_evaluate(parse_program("big(X) :- obs(X), X > 5."), db)
        assert db.rows("big") == {(9,): 0.9}

    def test_uncertain_uncovered_vehicle(self):
        """Example 1 with detection confidences."""
        program = parse_program(
            """
            cov(L1, T)  :- veh(enemy, L1, T), veh(friendly, L2, T),
                           dist(L1, L2) <= 50.
            uncov(L, T) :- veh(enemy, L, T), not cov(L, T).
            """
        )
        db = AnnotatedDatabase()
        db.assert_fact("veh", ("enemy", (10, 10), 3), 0.7)
        db.assert_fact("veh", ("enemy", (90, 90), 3), 0.9)
        db.assert_fact("veh", ("friendly", (12, 12), 3), 0.8)
        annotated_evaluate(program, db)
        assert db.confidence("cov", ((10, 10), 3)) == pytest.approx(0.56)
        assert db.confidence("uncov", ((90, 90), 3)) == pytest.approx(0.9)
        assert db.confidence("uncov", ((10, 10), 3)) == 0.0


class TestValidation:
    def test_unknown_norms(self):
        with pytest.raises(ProgramError):
            AnnotatedEvaluator(parse_program("p(X) :- q(X)."), conjunction="sum")
        with pytest.raises(ProgramError):
            AnnotatedEvaluator(parse_program("p(X) :- q(X)."), disjunction="avg")

    def test_aggregates_rejected(self):
        with pytest.raises(ProgramError):
            AnnotatedEvaluator(parse_program("c(count(_)) :- q(X)."))

    def test_unstratified_rejected(self):
        with pytest.raises(ProgramError):
            AnnotatedEvaluator(parse_program("w(X) :- m(X, Y), not w(Y)."))


#: A random fact of safe_rules' grammar (``<p>b(X, Y)`` bodies, ``<p>n(X)``
#: blockers) with its confidence.
ANNOTATED_FACTS = st.one_of(
    st.tuples(predicates.map(lambda p: f"{p}b"), st.tuples(st.integers(0, 2), st.integers(0, 2))),
    st.tuples(predicates.map(lambda p: f"{p}n"), st.tuples(st.integers(0, 2))),
).flatmap(lambda fact: st.tuples(st.just(fact), st.sampled_from([0.1, 0.35, 0.5, 0.9, 1.0])))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(safe_rules(), min_size=1, max_size=5),
    st.lists(ANNOTATED_FACTS, max_size=10),
    st.sampled_from(["product", "min"]),
    st.sampled_from(["max", "noisy-or"]),
)
def test_holding_facts_are_evaluate_rows(rule_texts, facts, conjunction, disjunction):
    """The facts that get a confidence above 0 are exactly evaluate()'s
    rows, whatever the confidences and norms: what holds does not
    depend on them, so confidences can be folded over evaluate()'s
    derivations."""
    program = parse_program("\n".join(rule_texts))
    adb, db = AnnotatedDatabase(), Database()
    for (pred, args), confidence in facts:
        adb.assert_fact(pred, args, confidence)
        db.assert_fact(pred, args)
    annotated_evaluate(program, adb, conjunction=conjunction, disjunction=disjunction)
    evaluate(program, db)
    for pred in program.idb_predicates():
        held = {row for row, confidence in adb.rows(pred).items() if confidence > 0}
        assert held == db.rows(pred), pred
