"""Tests for tabled top-down evaluation, cross-checked against
bottom-up evaluation and the magic-sets rewriting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import topdown
from repro.core.errors import EvaluationError, ProgramError
from repro.core.eval import Database, evaluate
from repro.core.magic import magic_evaluate
from repro.core.parser import parse_atom, parse_program
from repro.core.topdown import TopDownEvaluator, top_down_query
from repro.core.terms import Constant

ANCESTOR = """
    anc(X, Y) :- par(X, Y).
    anc(X, Z) :- par(X, Y), anc(Y, Z).
"""


def chain_db(n, prefix="n"):
    db = Database()
    for i in range(n):
        db.assert_fact("par", (f"{prefix}{i}", f"{prefix}{i+1}"))
    return db


def values(rows):
    return {tuple(t.value for t in row) for row in rows}


class TestBasicQueries:
    def test_edb_lookup(self):
        db = chain_db(3)
        rows = top_down_query(parse_program(ANCESTOR), db, parse_atom("par(n0, Z)"))
        assert values(rows) == {("n0", "n1")}

    def test_bound_free(self):
        db = chain_db(4)
        rows = top_down_query(parse_program(ANCESTOR), db, parse_atom("anc(n0, Z)"))
        assert values(rows) == {("n0", f"n{i}") for i in range(1, 5)}

    def test_free_bound(self):
        db = chain_db(4)
        rows = top_down_query(parse_program(ANCESTOR), db, parse_atom("anc(X, n4)"))
        assert values(rows) == {(f"n{i}", "n4") for i in range(4)}

    def test_fully_bound_true(self):
        db = chain_db(4)
        ev = TopDownEvaluator(parse_program(ANCESTOR), db)
        assert ev.ask(parse_atom("anc(n0, n3)"))
        assert not ev.ask(parse_atom("anc(n3, n0)"))

    def test_all_free(self):
        db = chain_db(3)
        rows = top_down_query(parse_program(ANCESTOR), db, parse_atom("anc(X, Y)"))
        assert len(rows) == 6

    def test_program_facts_loaded(self):
        program = parse_program("par(a, b). " + ANCESTOR)
        rows = top_down_query(program, Database(), parse_atom("anc(a, Y)"))
        assert values(rows) == {("a", "b")}


class TestRecursionTermination:
    def test_cyclic_graph_terminates(self):
        db = Database()
        for u, v in [("a", "b"), ("b", "c"), ("c", "a")]:
            db.assert_fact("par", (u, v))
        rows = top_down_query(parse_program(ANCESTOR), db, parse_atom("anc(a, Z)"))
        assert values(rows) == {("a", "a"), ("a", "b"), ("a", "c")}

    def test_iteration_cap_raises(self, monkeypatch):
        # The outermost activation re-expands until no table grows; a
        # chain of 4 grows for several rounds, so a cap of 1 is hit.
        monkeypatch.setattr(topdown, "_MAX_ITERATIONS", 1)
        with pytest.raises(EvaluationError, match="did not converge"):
            top_down_query(parse_program(ANCESTOR), chain_db(4), parse_atom("anc(n0, Z)"))

    def test_left_recursion(self):
        program = parse_program(
            "t(X, Y) :- t(X, Z), e(Z, Y). t(X, Y) :- e(X, Y)."
        )
        db = Database()
        for u, v in [("a", "b"), ("b", "c")]:
            db.assert_fact("e", (u, v))
        rows = top_down_query(program, db, parse_atom("t(a, Y)"))
        assert values(rows) == {("a", "b"), ("a", "c")}

    def test_mutual_recursion(self):
        program = parse_program(
            """
            even(X) :- zero(X).
            even(Y) :- odd(X), succ(X, Y).
            odd(Y) :- even(X), succ(X, Y).
            """
        )
        db = Database()
        db.assert_fact("zero", (0,))
        for i in range(6):
            db.assert_fact("succ", (i, i + 1))
        ev = TopDownEvaluator(program, db)
        assert values(ev.query(parse_atom("even(X)"))) == {(0,), (2,), (4,), (6,)}
        assert values(ev.query(parse_atom("odd(X)"))) == {(1,), (3,), (5,)}


class TestNegation:
    def test_stratified_negation(self):
        program = parse_program(
            ANCESTOR + "leaf(X) :- anc(_, X), not anc(X, _)."
        )
        db = chain_db(4)
        rows = top_down_query(program, db, parse_atom("leaf(X)"))
        assert values(rows) == {("n4",)}

    def test_unstratified_rejected(self):
        program = parse_program("w(X) :- m(X, Y), not w(Y).")
        with pytest.raises(ProgramError):
            TopDownEvaluator(program, Database())

    def test_negation_in_recursive_rule(self):
        program = parse_program(
            """
            blocked(b).
            reach(X) :- start(X).
            reach(Y) :- reach(X), e(X, Y), not blocked(Y).
            """
        )
        db = Database()
        db.assert_fact("start", ("a",))
        for u, v in [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]:
            db.assert_fact("e", (u, v))
        rows = top_down_query(program, db, parse_atom("reach(X)"))
        assert values(rows) == {("a",), ("c",), ("d",)}


class TestBuiltinsAndFunctions:
    def test_comparison(self):
        program = parse_program("big(X) :- n(X), X > 2.")
        db = Database()
        for i in range(5):
            db.assert_fact("n", (i,))
        rows = top_down_query(program, db, parse_atom("big(X)"))
        assert values(rows) == {(3,), (4,)}

    def test_arithmetic_heads(self):
        program = parse_program("inc(X, X + 1) :- n(X).")
        db = Database()
        db.assert_fact("n", (1,))
        rows = top_down_query(program, db, parse_atom("inc(1, Y)"))
        assert values(rows) == {(1, 2)}


class TestAgreementWithBottomUp:
    def test_matches_full_evaluation(self):
        program = parse_program(ANCESTOR)
        db = chain_db(6)
        td = values(top_down_query(program, db.copy(), parse_atom("anc(X, Y)")))
        bu = db.copy()
        evaluate(program, bu)
        assert td == bu.rows("anc")

    def test_matches_magic_sets(self):
        """top_down(Q) == bottom_up(magic(Q)) — the classical theorem."""
        program = parse_program(ANCESTOR)
        db = chain_db(6)
        for i in range(6):
            db.assert_fact("par", (f"m{i}", f"m{i+1}"))
        goal = parse_atom("anc(n2, Z)")
        td = top_down_query(program, db.copy(), goal)
        magic = magic_evaluate(program, goal, db)
        assert td == magic

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")),
        max_size=8,
    ), st.sampled_from("abcd"))
    def test_random_graphs_agree(self, edges, start):
        program = parse_program(ANCESTOR)
        db = Database()
        for u, v in edges:
            db.assert_fact("par", (u, v))
        goal = parse_atom(f"anc({start}, Z)")
        td = values(top_down_query(program, db.copy(), goal))
        bu = db.copy()
        evaluate(program, bu)
        expected = {r for r in bu.rows("anc") if r[0] == start}
        assert td == expected


class TestValidation:
    def test_aggregates_rejected(self):
        with pytest.raises(ProgramError):
            TopDownEvaluator(parse_program("c(count(_)) :- q(X)."), Database())
