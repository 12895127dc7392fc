"""Tests for cost-based join ordering."""

import pytest

from repro.core.eval import Database, evaluate
from repro.core.optimizer import (
    Statistics,
    estimate_extension,
    optimize_program,
    optimize_rule,
)
from repro.core.parser import parse_program, parse_rule
from repro.core.ast import RelLiteral


def make_stats(**cards):
    stats = Statistics()
    for pred, n in cards.items():
        stats.set_cardinality(pred, n)
    return stats


class TestStatistics:
    def test_from_database(self):
        db = Database()
        for i in range(10):
            db.assert_fact("r", (i % 2, i))
        stats = Statistics.from_database(db)
        assert stats.card("r") == 10
        assert stats.distinct_at("r", 0) == 2
        assert stats.distinct_at("r", 1) == 10

    def test_default_for_unknown(self):
        stats = Statistics()
        assert stats.card("nosuch") == 1000
        assert stats.distinct_at("nosuch", 0) > 0


class TestEstimation:
    def test_bound_position_more_selective(self):
        stats = Statistics()
        stats.set_cardinality("r", 100, {0: 50})
        rule = parse_rule("p(X) :- r(X, Y).")
        lit = rule.body[0]
        free = estimate_extension(lit, set(), stats)
        from repro.core.terms import Variable

        bound = estimate_extension(lit, {Variable("X")}, stats)
        assert bound < free

    def test_constant_counts_as_bound(self):
        stats = Statistics()
        stats.set_cardinality("r", 100, {0: 50})
        rule = parse_rule("p(Y) :- r(a, Y).")
        lit = rule.body[0]
        assert estimate_extension(lit, set(), stats) == pytest.approx(2.0)


class TestOrdering:
    def test_small_relation_first(self):
        stats = make_stats(big=10_000, small=3)
        rule = parse_rule("p(X) :- big(X, Y), small(X).")
        optimized = optimize_rule(rule, stats)
        preds = [
            lit.predicate for lit in optimized.body
            if isinstance(lit, RelLiteral)
        ]
        assert preds == ["small", "big"]

    def test_selective_join_chain(self):
        stats = Statistics()
        stats.set_cardinality("a", 1000, {0: 1000})
        stats.set_cardinality("b", 1000, {0: 1000, 1: 1000})
        stats.set_cardinality("seed", 1, {0: 1})
        rule = parse_rule("p(Z) :- a(X), b(X, Z), seed(X).")
        optimized = optimize_rule(rule, stats)
        preds = [
            lit.predicate for lit in optimized.body
            if isinstance(lit, RelLiteral)
        ]
        assert preds[0] == "seed"

    def test_builtins_and_negation_keep_slots(self):
        stats = make_stats(big=1000, small=2)
        rule = parse_rule("p(X) :- big(X, Y), Y > 3, small(X), not bad(X).")
        optimized = optimize_rule(rule, stats)
        kinds = [
            getattr(lit, "name", None) or
            ("not " if lit.negated else "") + lit.predicate
            for lit in optimized.body
        ]
        assert kinds == ["small", ">", "big", "not bad"]

    def test_facts_preserved(self):
        program = parse_program("e(1, 2). p(X) :- e(X, _).")
        optimized = optimize_program(program, Statistics())
        assert optimized.facts == program.facts


class TestSemanticsPreserved:
    def test_same_results(self):
        program_text = """
            tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(X, Z).
        """
        db = Database()
        import random

        rng = random.Random(3)
        for _ in range(30):
            db.assert_fact("e", (rng.randrange(6), rng.randrange(6)))
        program = parse_program(program_text)
        stats = Statistics.from_database(db)
        plain, opt = db.copy(), db.copy()
        evaluate(program, plain)
        evaluate(optimize_program(program, stats), opt)
        assert plain.rows("tri") == opt.rows("tri")

    def test_ordering_reduces_probes(self, tuple_executor):
        """The point of the exercise: fewer index probes with the
        selective relation first.  Pinned to the tuple executor — the
        batch engine probes once per step regardless of ordering, so
        per-binding probe counts only exist tuple-at-a-time."""
        program = parse_program("out(Y) :- big(X, Y), tiny(X).")
        db = Database()
        for i in range(300):
            db.assert_fact("big", (i, f"v{i}"))
        db.assert_fact("tiny", (7,))
        stats = Statistics.from_database(db)

        with tuple_executor():
            plain = db.copy()
            evaluate(program, plain)
            plain_probes = sum(
                plain.relation(p).probes for p in plain.predicates()
            )

            opt = db.copy()
            evaluate(optimize_program(program, stats), opt)
            opt_probes = sum(opt.relation(p).probes for p in opt.predicates())

        assert opt.rows("out") == plain.rows("out") == {("v7",)}
        assert opt_probes < plain_probes
