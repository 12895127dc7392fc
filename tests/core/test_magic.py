"""Tests for the magic-sets transformation."""

import pytest

from repro.core.errors import ProgramError
from repro.core.eval import BottomUpEvaluator, Database, evaluate
from repro.core.magic import adorn, magic_evaluate, magic_transform
from repro.core.parser import parse_atom, parse_program
from repro.core.terms import Constant, Variable

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
