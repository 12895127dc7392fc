"""Tests for the magic-sets transformation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ProgramError
from repro.core.eval import BottomUpEvaluator, Database, evaluate
from repro.core.magic import adorn, magic_evaluate, magic_transform
from repro.core.parser import parse_atom, parse_program
from repro.core.terms import Constant, Substitution, Variable
from repro.core.unify import match_sequences

ANCESTOR = """
    anc(X, Y) :- par(X, Y).
    anc(X, Z) :- par(X, Y), anc(Y, Z).
"""


def chain_db(n, prefix="n"):
    db = Database()
    for i in range(n):
        db.assert_fact("par", (f"{prefix}{i}", f"{prefix}{i+1}"))
    return db


class TestAdorn:
    def test_ground_is_bound(self):
        atom = parse_atom("p(a, X)")
        assert adorn(atom, set()) == "bf"

    def test_bound_variable(self):
        atom = parse_atom("p(X, Y)")
        assert adorn(atom, {Variable("X")}) == "bf"

    def test_all_free(self):
        assert adorn(parse_atom("p(X, Y)"), set()) == "ff"


class TestMagicTransform:
    def test_rewrites_to_adorned_names(self):
        transform = magic_transform(parse_program(ANCESTOR), parse_atom("anc(n0, Z)"))
        preds = {r.head.predicate for r in transform.program.rules}
        assert "anc__bf" in preds
        assert "m_anc__bf" in preds

    def test_seed_fact_present(self):
        transform = magic_transform(parse_program(ANCESTOR), parse_atom("anc(n0, Z)"))
        assert transform.seed.predicate == "m_anc__bf"
        assert transform.seed.args == (Constant("n0"),)

    def test_query_must_be_idb(self):
        with pytest.raises(ProgramError):
            magic_transform(parse_program(ANCESTOR), parse_atom("par(n0, Z)"))

    def test_aggregates_rejected(self):
        program = parse_program("c(count(_)) :- obs(X).")
        with pytest.raises(ProgramError):
            magic_transform(program, parse_atom("c(N)"))


def agree(program, db, goal):
    """``magic_evaluate``'s answers to ``goal``, checked against the
    rows of ``evaluate()`` over the whole program that match it."""
    program, goal = parse_program(program), parse_atom(goal)
    rows = magic_evaluate(program, goal, db)
    full = db.copy()
    evaluate(program, full)
    expected = {
        row for row in full.relation(goal.predicate)
        if match_sequences(goal.args, row, Substitution()) is not None
    }
    assert rows == expected
    return {tuple(t.value for t in row) for row in rows}


def facts(pred, *rows):
    db = Database()
    for row in rows:
        db.assert_fact(pred, row)
    return db


class TestProgramShapes:
    """One goal per program shape, magic against full evaluation and
    against the answer worked out by hand."""

    def test_bound_free(self):
        assert agree(ANCESTOR, chain_db(4), "anc(n0, Z)") == {
            ("n0", f"n{i}") for i in range(1, 5)
        }

    def test_free_bound(self):
        assert agree(ANCESTOR, chain_db(4), "anc(X, n4)") == {
            (f"n{i}", "n4") for i in range(4)
        }

    def test_fully_bound_false(self):
        assert agree(ANCESTOR, chain_db(4), "anc(n3, n0)") == set()

    def test_program_facts_join_the_database(self):
        assert agree("par(a, b). " + ANCESTOR, Database(), "anc(a, Y)") == {
            ("a", "b")
        }

    def test_cyclic_graph(self):
        db = facts("par", ("a", "b"), ("b", "c"), ("c", "a"))
        assert agree(ANCESTOR, db, "anc(a, Z)") == {
            ("a", "a"), ("a", "b"), ("a", "c")
        }

    def test_left_recursion(self):
        program = "t(X, Y) :- t(X, Z), e(Z, Y). t(X, Y) :- e(X, Y)."
        db = facts("e", ("a", "b"), ("b", "c"))
        assert agree(program, db, "t(a, Y)") == {("a", "b"), ("a", "c")}

    def test_mutual_recursion(self):
        program = """
            even(X) :- zero(X).
            even(Y) :- odd(X), succ(X, Y).
            odd(Y) :- even(X), succ(X, Y).
        """
        db = facts("succ", *[(i, i + 1) for i in range(6)])
        db.assert_fact("zero", (0,))
        assert agree(program, db, "even(X)") == {(0,), (2,), (4,), (6,)}
        assert agree(program, db, "odd(X)") == {(1,), (3,), (5,)}

    def test_negation_in_recursive_rule(self):
        program = """
            blocked(b).
            reach(X) :- start(X).
            reach(Y) :- reach(X), e(X, Y), not blocked(Y).
        """
        db = facts("e", ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))
        db.assert_fact("start", ("a",))
        assert agree(program, db, "reach(X)") == {("a",), ("c",), ("d",)}

    def test_comparison(self):
        db = facts("n", *[(i,) for i in range(5)])
        assert agree("big(X) :- n(X), X > 2.", db, "big(X)") == {(3,), (4,)}

    def test_arithmetic_head(self):
        db = facts("n", (1,), (2,))
        assert agree("inc(X, X + 1) :- n(X).", db, "inc(1, Y)") == {(1, 2)}


class TestMagicEvaluate:
    def test_answers_match_full_evaluation(self):
        program = parse_program(ANCESTOR)
        db = chain_db(10)
        for i in range(10):  # an irrelevant second family
            db.assert_fact("par", (f"m{i}", f"m{i+1}"))
        rows = magic_evaluate(program, parse_atom("anc(n0, Z)"), db)
        full = db.copy()
        evaluate(program, full)
        expected = {row for row in full.relation("anc") if row[0] == Constant("n0")}
        assert rows == expected

    def test_mid_chain_goal_over_two_families(self):
        # A goal bound mid-chain, beside an irrelevant second family:
        # the answers are exactly evaluate()'s rows from that start.
        program = parse_program(ANCESTOR)
        db = chain_db(6)
        for i in range(6):
            db.assert_fact("par", (f"m{i}", f"m{i+1}"))
        rows = magic_evaluate(program, parse_atom("anc(n2, Z)"), db)
        full = db.copy()
        evaluate(program, full)
        assert rows == {
            row for row in full.relation("anc") if row[0] == Constant("n2")
        }
        assert {tuple(t.value for t in r) for r in rows} == {
            ("n2", f"n{i}") for i in range(3, 7)
        }

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")),
        max_size=8,
    ), st.sampled_from("abcd"))
    def test_random_graphs_agree(self, edges, start):
        # Cycles, self-loops and repeated edges included.
        program = parse_program(ANCESTOR)
        db = Database()
        for u, v in edges:
            db.assert_fact("par", (u, v))
        rows = magic_evaluate(program, parse_atom(f"anc({start}, Z)"), db)
        full = db.copy()
        evaluate(program, full)
        assert {tuple(t.value for t in r) for r in rows} == {
            r for r in full.rows("anc") if r[0] == start
        }

    def test_prunes_irrelevant_facts(self):
        program = parse_program(ANCESTOR)
        db = chain_db(10)
        for i in range(10):
            db.assert_fact("par", (f"m{i}", f"m{i+1}"))
        transform = magic_transform(program, parse_atom("anc(n0, Z)"))
        work = db.copy()
        BottomUpEvaluator(transform.program).evaluate(work)
        derived = sum(
            work.count(p) for p in work.predicates() if p.startswith("anc__")
        )
        full = db.copy()
        evaluate(program, full)
        assert derived < full.count("anc")

    def test_fully_bound_query(self):
        program = parse_program(ANCESTOR)
        db = chain_db(5)
        rows = magic_evaluate(program, parse_atom("anc(n0, n3)"), db)
        assert len(rows) == 1

    def test_no_answer(self):
        program = parse_program(ANCESTOR)
        db = chain_db(5)
        assert magic_evaluate(program, parse_atom("anc(n3, n0)"), db) == set()

    def test_all_free_query(self):
        program = parse_program(ANCESTOR)
        db = chain_db(4)
        rows = magic_evaluate(program, parse_atom("anc(X, Y)"), db)
        full = db.copy()
        evaluate(program, full)
        assert len(rows) == full.count("anc")

    def test_nonrecursive_program(self):
        program = parse_program("gp(X, Z) :- par(X, Y), par(Y, Z).")
        db = chain_db(5)
        rows = magic_evaluate(program, parse_atom("gp(n0, Z)"), db)
        assert {tuple(t.value for t in r) for r in rows} == {("n0", "n2")}

    def test_negation_passthrough(self):
        program = parse_program(
            """
            anc(X, Y) :- par(X, Y).
            anc(X, Z) :- par(X, Y), anc(Y, Z).
            childless(X) :- anc(_, X), not anc(X, _).
            """
        )
        db = chain_db(4)
        rows = magic_evaluate(program, parse_atom("childless(X)"), db)
        assert {tuple(t.value for t in r) for r in rows} == {("n4",)}
