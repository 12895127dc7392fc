#!/usr/bin/env python
"""E11 — Magic-sets ablation.

The system architecture (Fig. 2) rewrites the user program with magic
sets before compiling it.  We measure the bottom-up work saved on point
queries over a recursive ancestor view: derived facts materialized with
and without the rewriting, as the fraction of data relevant to the
query shrinks.

Expected shape: without magic the evaluator materializes the whole
ancestor relation across all families; with magic only the queried
family's facts are derived, and the gap widens with more irrelevant
families.
"""

import sys

import pytest

from repro.core.eval import BottomUpEvaluator, Database, evaluate
from repro.core.magic import magic_evaluate, magic_transform
from repro.core.parser import parse_atom, parse_program
from harness import check_exact_table, report

ANCESTOR = """
    anc(X, Y) :- par(X, Y).
    anc(X, Z) :- par(X, Y), anc(Y, Z).
"""


def family_db(families: int, depth: int) -> Database:
    db = Database()
    for f in range(families):
        for i in range(depth):
            db.assert_fact("par", (f"f{f}n{i}", f"f{f}n{i+1}"))
    return db


def derived_counts(families: int, depth: int):
    program = parse_program(ANCESTOR)
    query = parse_atom("anc(f0n0, Z)")
    db = family_db(families, depth)

    full = db.copy()
    evaluate(program, full)
    full_count = full.count("anc")

    transform = magic_transform(program, query)
    work = db.copy()
    BottomUpEvaluator(transform.program).evaluate(work)
    magic_count = sum(
        work.count(p) for p in work.predicates()
        if p.startswith(("anc__", "m_anc__"))
    )
    answers = magic_evaluate(program, query, db)
    return full_count, magic_count, len(answers)


def run(depth=10, family_counts=(1, 2, 4, 8)):
    rows = []
    results = {}
    for families in family_counts:
        full, magic, answers = derived_counts(families, depth)
        rows.append([families, full, magic, f"{full / magic:.1f}x", answers])
        results[families] = (full, magic, answers)
    report(
        "e11_magic",
        f"E11: derived facts for anc(f0n0, Z), chains of depth {depth}",
        ["families", "no magic", "with magic", "saving", "answers"],
        rows,
    )
    return results


def test_e11_magic_prunes(benchmark):
    results = benchmark.pedantic(run, args=(8, (1, 4)), rounds=1, iterations=1)
    for families, (full, magic, answers) in results.items():
        assert answers == 8  # the queried chain's length
    # With 4 families, magic skips 3 of them entirely.
    full4, magic4, _ = results[4]
    full1, magic1, _ = results[1]
    assert magic4 < full4
    assert magic4 / magic1 < full4 / full1  # the gap widens


if __name__ == "__main__":
    # The full table takes a fraction of a second: --smoke runs it too.
    results = run()
    if "--check" in sys.argv:
        check_exact_table("e11", {
            str(families): {"no_magic": full, "with_magic": magic, "answers": answers}
            for families, (full, magic, answers) in results.items()
        })
