"""Tests for incremental maintenance: set-of-derivations, counting, DRed.

Every scenario is also cross-checked against from-scratch re-evaluation
(the correctness oracle), including randomized update sequences.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.derivations import DerivationStore, fact_ref
from repro.core.errors import ProgramError
from repro.core.eval import Database, evaluate
from repro.core.incremental import (
    CountingEvaluator,
    DRedEvaluator,
    IncrementalEvaluator,
)
from repro.core.parser import parse_program
from repro.core.stratify import is_recursive

from .test_xy_stages import nodes, staged_programs, stages

UNCOV = """
    cov(L1, T)  :- veh("enemy", L1, T), veh("friendly", L2, T),
                   dist(L1, L2) <= 50.
    uncov(L, T) :- veh("enemy", L, T), not cov(L, T).
"""

TC = "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z)."

#: One blocker can match both negated subgoals of one derivation.
DOUBLE_NEGATION = "p(X, Y) :- a(X, Y), not b(X), not b(Y)."

#: One update can fill both positive subgoals of one derivation.
SELF_JOIN = "p(X) :- e(X, Y), e(Y, X)."

#: ... and the blocker it derives retracts a derivation downstream.
SELF_JOINED_BLOCKER = "q(X) :- a(X), not b(X). b(X) :- c(X, Y), c(Y, X)."

#: A fact DRed over-deletes and re-derives has two rules: re-derived
#: through the first only, h(1) lost its second derivation and went
#: with the first's blocker.
TWO_RULE_REDERIVATION = (
    "g(X) :- m(X). g(X) :- n(X). h(X) :- g(X), not b(X). h(X) :- g(X), c(X)."
)

#: A computed argument in a body atom: no number matches ``X + 1``
#: before X is bound, so an update of ``b`` seeds its join without it.
COMPUTED_JOIN = "q(X) :- a(X), b(X + 1)."
COMPUTED_BLOCKER = "p(X) :- a(X), not b(X + 1)."

#: Update sequences for the computed-argument programs: the update of
#: ``b`` last, first, and inserted then deleted.
COMPUTED_ARRIVALS = {
    "b last": [(True, "a", (1,)), (True, "a", (2,)), (True, "b", (2,))],
    "b first": [(True, "b", (2,)), (True, "a", (1,)), (True, "a", (2,))],
    "b deleted": [(True, "b", (2,)), (True, "a", (1,)), (False, "b", (2,))],
}

ALL_MAINTAINERS = [IncrementalEvaluator, CountingEvaluator, DRedEvaluator]
NONREC_MAINTAINERS = ALL_MAINTAINERS
REC_MAINTAINERS = [IncrementalEvaluator, DRedEvaluator]


def oracle(program_text, facts):
    """From-scratch evaluation of the current fact set."""
    program = parse_program(program_text)
    db = Database()
    for pred, args in facts:
        db.assert_fact(pred, args)
    evaluate(program, db)
    return db


@pytest.mark.parametrize("maintainer", ALL_MAINTAINERS)
class TestBasicMaintenance:
    def test_insert_derives(self, maintainer):
        ev = maintainer(parse_program("p(X) :- q(X)."))
        ev.insert("q", (1,))
        assert ev.rows("p") == {(1,)}

    def test_delete_retracts(self, maintainer):
        ev = maintainer(parse_program("p(X) :- q(X)."))
        ev.insert("q", (1,))
        ev.delete("q", (1,))
        assert ev.rows("p") == set()

    def test_duplicate_insert_ignored(self, maintainer):
        ev = maintainer(parse_program("p(X) :- q(X)."))
        ev.insert("q", (1,))
        ev.insert("q", (1,))
        ev.delete("q", (1,))
        assert ev.rows("p") == set()

    def test_delete_absent_noop(self, maintainer):
        ev = maintainer(parse_program("p(X) :- q(X)."))
        ev.delete("q", (1,))
        assert ev.rows("p") == set()

    def test_join_maintenance(self, maintainer):
        ev = maintainer(parse_program("j(X, Z) :- r(X, Y), s(Y, Z)."))
        ev.insert("r", (1, 2))
        assert ev.rows("j") == set()
        ev.insert("s", (2, 3))
        assert ev.rows("j") == {(1, 3)}
        ev.delete("r", (1, 2))
        assert ev.rows("j") == set()

    def test_alternative_derivations_survive(self, maintainer):
        ev = maintainer(parse_program("p(X) :- a(X). p(X) :- b(X)."))
        ev.insert("a", (1,))
        ev.insert("b", (1,))
        ev.delete("a", (1,))
        assert ev.rows("p") == {(1,)}
        ev.delete("b", (1,))
        assert ev.rows("p") == set()

    def test_chained_rules(self, maintainer):
        ev = maintainer(parse_program("p(X) :- q(X). r(X) :- p(X)."))
        ev.insert("q", (1,))
        assert ev.rows("r") == {(1,)}
        ev.delete("q", (1,))
        assert ev.rows("r") == set()

    def test_program_facts_loaded(self, maintainer):
        ev = maintainer(parse_program("q(1). p(X) :- q(X)."))
        assert ev.rows("p") == {(1,)}


@pytest.mark.parametrize("maintainer", ALL_MAINTAINERS)
class TestNegationMaintenance:
    def test_blocker_insert_then_delete(self, maintainer):
        ev = maintainer(parse_program(UNCOV))
        ev.insert("veh", ("enemy", (10, 10), 3))
        assert ev.rows("uncov") == {((10, 10), 3)}
        ev.insert("veh", ("friendly", (12, 12), 3))
        assert ev.rows("uncov") == set()
        ev.delete("veh", ("friendly", (12, 12), 3))
        assert ev.rows("uncov") == {((10, 10), 3)}

    def test_two_blockers(self, maintainer):
        ev = maintainer(parse_program(UNCOV))
        ev.insert("veh", ("enemy", (10, 10), 3))
        ev.insert("veh", ("friendly", (12, 12), 3))
        ev.insert("veh", ("friendly", (11, 11), 3))
        ev.delete("veh", ("friendly", (12, 12), 3))
        assert ev.rows("uncov") == set()
        ev.delete("veh", ("friendly", (11, 11), 3))
        assert ev.rows("uncov") == {((10, 10), 3)}

    def test_cascading_negation(self, maintainer):
        program = parse_program(
            """
            q(X) :- n(X), not p(X).
            r(X) :- n(X), not q(X).
            """
        )
        ev = maintainer(program)
        ev.insert("n", (1,))
        assert ev.rows("q") == {(1,)} and ev.rows("r") == set()
        ev.insert("p", (1,))
        assert ev.rows("q") == set() and ev.rows("r") == {(1,)}
        ev.delete("p", (1,))
        assert ev.rows("q") == {(1,)} and ev.rows("r") == set()

    def test_blocker_of_two_negated_subgoals(self, maintainer):
        # The derivation is matched with the blocker absent: its other
        # ``not b`` must not hide it from the retraction.
        ev = maintainer(parse_program(DOUBLE_NEGATION))
        ev.insert("a", (1, 1))
        assert ev.rows("p") == {(1, 1)}
        ev.insert("b", (1,))
        assert ev.rows("p") == set()
        ev.delete("b", (1,))
        assert ev.rows("p") == {(1, 1)}

    def test_blocker_beside_another_on_a_wildcard(self, maintainer):
        # Inserting or deleting one of two blockers moves nothing.
        ev = maintainer(parse_program("q(X) :- a(X), not b(X, _)."))
        ev.insert("a", (1,))
        ev.insert("b", (1, 2))
        ev.insert("b", (1, 3))
        assert ev.rows("q") == set()
        ev.delete("b", (1, 2))
        assert ev.rows("q") == set()
        ev.delete("b", (1, 3))
        assert ev.rows("q") == {(1,)}


@pytest.mark.parametrize("maintainer", ALL_MAINTAINERS)
@pytest.mark.parametrize("text", [COMPUTED_JOIN, COMPUTED_BLOCKER])
@pytest.mark.parametrize("arrival", sorted(COMPUTED_ARRIVALS))
def test_trigger_on_a_computed_argument(maintainer, text, arrival):
    """An insert or delete of ``b(2)`` reaches the derivations of
    ``X = 1`` through ``b(X + 1)``, positive or negated: rows and store
    are :func:`evaluate`'s in every arrival order."""
    ev = maintainer(parse_program(text))
    live = set()
    for is_insert, pred, args in COMPUTED_ARRIVALS[arrival]:
        (ev.insert if is_insert else ev.delete)(pred, args)
        (live.add if is_insert else live.discard)((pred, args))
    expected = oracle(text, live)
    head = parse_program(text).rules[0].head.predicate
    assert ev.rows(head) == expected.rows(head)
    store = expected.derivations.snapshot()
    if isinstance(ev, CountingEvaluator):
        assert ev.counts == {fact: len(ds) for fact, ds in store.items()}
    else:
        assert ev.db.derivations.snapshot() == store


@pytest.mark.parametrize("maintainer", REC_MAINTAINERS)
class TestRecursiveMaintenance:
    def test_transitive_closure_grows(self, maintainer):
        ev = maintainer(parse_program(TC))
        ev.insert("e", ("a", "b"))
        ev.insert("e", ("b", "c"))
        assert ev.rows("t") == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_bridge_deletion(self, maintainer):
        ev = maintainer(parse_program(TC))
        for u, v in [("a", "b"), ("b", "c"), ("c", "d")]:
            ev.insert("e", (u, v))
        ev.delete("e", ("b", "c"))
        assert ev.rows("t") == {("a", "b"), ("c", "d")}

    def test_alternative_path_survives_deletion(self, maintainer):
        ev = maintainer(parse_program(TC))
        for u, v in [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]:
            ev.insert("e", (u, v))
        ev.delete("e", ("b", "d"))
        assert ("a", "d") in ev.rows("t")

    def test_matches_oracle_after_updates(self, maintainer):
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d")]
        ev = maintainer(parse_program(TC))
        facts = []
        for u, v in edges:
            ev.insert("e", (u, v))
            facts.append(("e", (u, v)))
        # NOTE: cyclic edge set makes derivations cyclic; delete an edge
        # outside the cycle, which set-of-derivations handles exactly.
        ev.delete("e", ("a", "d"))
        facts.remove(("e", ("a", "d")))
        assert ev.rows("t") == oracle(TC, facts).rows("t")


class TestCountingSpecifics:
    def test_counts_tracked(self):
        ev = CountingEvaluator(parse_program("p(X) :- a(X). p(X) :- b(X)."))
        ev.insert("a", (1,))
        ev.insert("b", (1,))
        assert ev.count_of("p", (1,)) == 2
        ev.delete("a", (1,))
        assert ev.count_of("p", (1,)) == 1

    def test_rejects_recursion(self):
        with pytest.raises(ProgramError):
            CountingEvaluator(parse_program(TC))

    def test_one_update_filling_two_subgoals_counts_once(self):
        ev = CountingEvaluator(parse_program(SELF_JOIN))
        ev.insert("e", (1, 1))
        assert ev.count_of("p", (1,)) == 1
        ev.delete("e", (1, 1))
        assert ev.count_of("p", (1,)) == 0
        assert ev.rows("p") == set()


class TestDRedSpecifics:
    def test_rederives_through_every_rule(self):
        ev = DRedEvaluator(parse_program(TWO_RULE_REDERIVATION))
        for pred in "mnc":
            ev.insert(pred, (1,))
        ev.delete("m", (1,))
        ev.insert("b", (1,))
        assert ev.rows("h") == {(1,)}
        facts = [("n", (1,)), ("c", (1,)), ("b", (1,))]
        expected = oracle(TWO_RULE_REDERIVATION, facts).derivations.snapshot()
        assert ev.db.derivations.snapshot() == expected

    def test_rederives_a_stratum_at_a_time(self):
        """z(1) is over-deleted and comes back through its second rule;
        h(1), whose second rule it blocks, must not come back through
        that rule while z(1) is still away."""
        program = "z(X) :- m(X). z(X) :- k(X). h(X) :- m(X). h(X) :- q(X), not z(X)."
        ev = DRedEvaluator(parse_program(program))
        for pred in "mkq":
            ev.insert(pred, (1,))
        ev.delete("m", (1,))
        assert ev.rows("h") == set() and ev.rows("z") == {(1,)}

    def test_overdeletion_counted(self):
        ev = DRedEvaluator(parse_program(TC))
        for u, v in [("a", "b"), ("b", "c"), ("a", "c")]:
            ev.insert("e", (u, v))
        ev.delete("e", ("b", "c"))
        # t(a, c) was over-deleted (derivable through b-c) then
        # re-derived from the direct edge.
        assert ("a", "c") in ev.rows("t")
        assert ev.stats.facts_overdeleted >= 1
        assert ev.stats.facts_rederived >= 1

    def test_rederivation_work_exceeds_derivation_subtraction(self):
        """The paper's argument for set-of-derivations: DRed pays extra
        (re-derivation) work per deletion."""
        edges = [(f"n{i}", f"n{i+1}") for i in range(8)]
        edges += [("n0", f"n{i}") for i in range(2, 9)]  # shortcuts
        dred = DRedEvaluator(parse_program(TC))
        sod = IncrementalEvaluator(parse_program(TC))
        for u, v in edges:
            dred.insert("e", (u, v))
            sod.insert("e", (u, v))
        dred.delete("e", ("n3", "n4"))
        sod.delete("e", ("n3", "n4"))
        assert dred.rows("t") == sod.rows("t")
        assert dred.stats.facts_overdeleted > 0
        assert sod.stats.facts_overdeleted == 0


class TestSetOfDerivationsSpecifics:
    def test_locally_nonrecursive_check(self):
        ev = IncrementalEvaluator(parse_program(TC))
        for u, v in [("a", "b"), ("b", "c")]:
            ev.insert("e", (u, v))
        assert ev.verify_locally_nonrecursive()

    def test_cyclic_derivations_detected(self):
        ev = IncrementalEvaluator(parse_program(TC))
        for u, v in [("a", "b"), ("b", "a")]:
            ev.insert("e", (u, v))
        # t(a,a) and t(b,b) derive through each other: derivation graph
        # has cycles, so local non-recursion fails (Section IV-C).
        assert not ev.verify_locally_nonrecursive()


#: An XY-stratified program (test_xy_stages.staged_programs) where
#: deleting e(0, 0) empties p(1, 4)'s derivation set and the same
#: cascade derives p(1, 4) again before its deletion is applied.
XY_CASCADE = """
    p(Y, D + 1) :- w(X, D), e(X, Y), D < 7, not q(Y, D + 0).
    r(X, D) :- p(X, D), not q(X, D).
    w(Y, D + 0) :- r(X, D), e(X, Y).
    p(X, S) :- start(X, S).
    p(Y, D + 3) :- p(X, D), e(X, Y), D < 7, not q(Y, D + 3).
    q(X, E) :- p(X, D), jump(D, E), E > D.
    q(Y, D + 1) :- p(Y, Dp), D + 1 > Dp, p(X, D), e(X, Y).
"""
XY_CASCADE_BASE = [("e", (0, 0)), ("e", (0, 1)), ("e", (1, 0)), ("start", (0, 0))]


def cascade_in(order, monkeypatch):
    """Make every store hand back the facts a deletion emptied in ref
    order (checked) or in reverse ref order."""
    remove_support = DerivationStore.remove_support

    def stated(store, removed):
        emptied = remove_support(store, removed)
        assert emptied == sorted(emptied, key=fact_ref)
        return emptied if order == "ref" else emptied[::-1]

    monkeypatch.setattr(DerivationStore, "remove_support", stated)


def assert_script_matches_evaluate(text, base, script):
    program = parse_program(text)
    db = oracle(text, base)
    ev = IncrementalEvaluator(program, db=db)
    live = set(base)
    assert ev.verify_locally_nonrecursive()
    for is_insert, (pred, args) in script:
        (ev.insert if is_insert else ev.delete)(pred, args)
        (live.add if is_insert else live.discard)((pred, args))
    assert ev.verify_locally_nonrecursive()
    expected = oracle(text, live)
    for pred in program.idb_predicates():
        assert ev.rows(pred) == expected.rows(pred), pred
    assert db.derivations.snapshot() == expected.derivations.snapshot()


@pytest.mark.parametrize("order", ["ref", "reversed"])
def test_cascade_keeps_a_fact_derived_again(order, monkeypatch):
    """A fact whose deletion a cascade queued and then derived again
    stays, with its new derivation: after ``delete e(0, 0)`` the rows
    and store are :func:`evaluate`'s (p(1, 4) and q(0, 5) were lost),
    whichever order the cascade takes the emptied facts in."""
    cascade_in(order, monkeypatch)
    assert_script_matches_evaluate(XY_CASCADE, XY_CASCADE_BASE, [(False, ("e", (0, 0)))])
    assert oracle(XY_CASCADE, XY_CASCADE_BASE[1:]).rows("p") >= {(1, 4)}


#: The predicates no staged program derives.
XY_EDB = ("e", "start", "a", "jump")


@pytest.mark.parametrize("order", ["ref", "reversed"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), case=staged_programs())
def test_xy_update_scripts_match_evaluate(order, data, case):
    """Insert / delete scripts of base facts on XY-stratified programs,
    the cascade in either order: rows and store are :func:`evaluate`'s.
    Base facts of derived predicates are left out here: of a database
    handed in, the maintainer knows as base only the facts with no
    derivation (test_xy_base_facts_of_derived_predicates_stay inserts
    them through the maintainer)."""
    text, base = case
    base = [fact for fact in base if fact[0] in XY_EDB]
    updates = st.one_of(
        st.sampled_from(base or [("e", (0, 0))]),
        st.tuples(st.just("e"), st.tuples(nodes, nodes)),
        st.tuples(st.just("start"), st.tuples(nodes, stages)),
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        cascade_in(order, monkeypatch)
        assert_script_matches_evaluate(
            text, base, data.draw(st.lists(st.tuples(st.booleans(), updates), max_size=8)))


@pytest.mark.parametrize("order", ["ref", "reversed"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), case=staged_programs())
def test_xy_base_facts_of_derived_predicates_stay(order, data, case):
    """The XY half of the base-fact property (the other is
    ``MAINTAINED``'s "base facts of derived predicates"): base facts of
    ``p``, ``q`` and ``w`` inserted and deleted beside those of the
    other predicates, the cascade in either order, and the maintainer's
    rows and store are :func:`evaluate`'s over the base facts left.  A
    base fact stays until it is deleted as one, whatever cascade
    empties its derivation set.  Only the set-of-derivations maintainer
    holds XY-stratified programs."""
    text, base = case
    updates = st.one_of(
        st.sampled_from(base),
        st.tuples(st.sampled_from(["p", "q", "w", "start"]), st.tuples(nodes, stages)),
        st.tuples(st.just("e"), st.tuples(nodes, nodes)),
    )
    script = [(True, fact) for fact in base] + data.draw(
        st.lists(st.tuples(st.booleans(), updates), max_size=8))
    with pytest.MonkeyPatch.context() as monkeypatch:
        cascade_in(order, monkeypatch)
        assert_maintainers_match(text, script, [IncrementalEvaluator])


@pytest.mark.parametrize("maintainer", ALL_MAINTAINERS)
@pytest.mark.parametrize("first", ["p", "q"])
def test_a_base_fact_outlives_its_derivations(maintainer, first):
    """``q(1)`` inserted as a base fact beside ``p(1)``, in either
    order: deleting ``p(1)`` leaves it, deleting it as a base fact
    while ``p(1)`` derives it leaves it too."""
    ev = maintainer(parse_program("q(X) :- p(X)."))
    for pred in (first, "q" if first == "p" else "p"):
        ev.insert(pred, (1,))
    ev.delete("p", (1,))
    assert ev.rows("q") == {(1,)}
    ev.delete("q", (1,))
    assert ev.rows("q") == set()
    ev.insert("q", (1,))
    ev.insert("p", (1,))
    ev.delete("q", (1,))
    assert ev.rows("q") == {(1,)}
    ev.delete("p", (1,))
    assert ev.rows("q") == set()


#: Three derivations but two valuations: r(1, a) and r(1, b) are one
#: value of X.
VALUATIONS = "c(count(_)) :- r(X, _). s(sum(X)) :- r(X, _)."
VALUATION_FACTS = [(1, "a"), (1, "b"), (2, "a")]


@pytest.mark.parametrize("cls", ALL_MAINTAINERS)
def test_aggregates_fold_valuations_not_derivations(cls):
    """An aggregate counts and sums the valuations of its named body
    variables: c(2) and s(3), not c(3) and s(4), whichever maintainer
    holds them, with evaluate()'s store."""
    ev = cls(parse_program(VALUATIONS))
    for args in VALUATION_FACTS:
        ev.insert("r", args)
    assert ev.rows("c") == {(2,)} and ev.rows("s") == {(3,)}
    expected = oracle(VALUATIONS, [("r", args) for args in VALUATION_FACTS])
    store = expected.derivations.snapshot()
    valuations = {fact: len(ds) for fact, ds in store.items() if fact[0] == "c#r0"}
    assert sorted(valuations.values()) == [1, 2]
    if isinstance(ev, CountingEvaluator):
        assert ev.counts == {fact: len(ds) for fact, ds in store.items()}
    else:
        assert ev.db.derivations.snapshot() == store
    # Withdrawing r(1, a) leaves the valuation X = 1: nothing moves.
    ev.delete("r", (1, "a"))
    assert ev.rows("c") == {(2,)} and ev.rows("s") == {(3,)}
    ev.delete("r", (1, "b"))
    assert ev.rows("c") == {(1,)} and ev.rows("s") == {(2,)}


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from(["enemy", "friendly"]),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
    ),
    max_size=14,
))
def test_random_update_sequences_match_oracle(ops):
    """Property: after any insert/delete sequence, the incrementally
    maintained result equals from-scratch evaluation."""
    ev = IncrementalEvaluator(parse_program(UNCOV))
    live = set()
    for is_insert, kind, loc in ops:
        args = (kind, loc, 0)
        if is_insert:
            ev.insert("veh", args)
            live.add(args)
        else:
            ev.delete("veh", args)
            live.discard(args)
    expected = oracle(UNCOV, [("veh", a) for a in live])
    assert ev.rows("uncov") == expected.rows("uncov")
    assert ev.rows("cov") == expected.rows("cov")


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from(["a", "b", "c", "d"]),
        st.sampled_from(["a", "b", "c", "d"]),
    ),
    max_size=12,
))
def test_random_dag_tc_matches_oracle(ops):
    """TC maintenance on acyclic edge sets matches the oracle."""
    order = {"a": 0, "b": 1, "c": 2, "d": 3}
    ev = IncrementalEvaluator(parse_program(TC))
    live = set()
    for is_insert, u, v in ops:
        if order[u] >= order[v]:
            continue  # keep it acyclic
        if is_insert:
            ev.insert("e", (u, v))
            live.add((u, v))
        else:
            ev.delete("e", (u, v))
            live.discard((u, v))
    expected = oracle(TC, [("e", e) for e in live])
    assert ev.rows("t") == expected.rows("t")


#: Aggregate programs over r(X, Y) and b(X) (every maintainer holds
#: them; the distributed half is tests/dist/test_gpa_aggregates.py).
AGGREGATES = {
    # An anonymous body variable: two valuations, three derivations.
    "count and sum of valuations": VALUATIONS,
    "grouped folds": "g(X, count(Y), sum(Y), min(Y), max(Y), avg(Y)) :- r(X, Y).",
    "ungrouped folds": "u(count(_), sum(Y), min(Y), max(Y), avg(Y)) :- r(X, Y).",
    "aggregate feeding a rule": "m(X, max(Y)) :- r(X, Y). big(X) :- m(X, Y), Y >= 1.",
    "negation below an aggregate": (
        "ok(X, Y) :- r(X, Y), not b(X). n(count(Y)) :- ok(X, Y). "
        "k(X, sum(Y)) :- r(X, Y), not b(Y)."
    ),
}

AGGREGATE_FACTS = st.one_of(
    st.tuples(st.just("r"), st.tuples(
        st.integers(0, 2), st.sampled_from([0, 1, 2, 0.1, 0.2, 0.3]),
    )),
    st.tuples(st.just("b"), st.tuples(st.integers(0, 2))),
)


def _facts(*preds):
    """Facts of ``preds`` (predicate, arity) over a small domain."""
    return st.one_of(*[
        st.tuples(st.just(pred), st.tuples(*[st.integers(0, 2)] * arity))
        for pred, arity in preds
    ])


#: Program, facts a random update draws from.
MAINTAINED = {
    # (0, 0) and (30, 30) cover each other; (90, 0) is out of range.
    "uncov": (UNCOV, st.tuples(st.just("veh"), st.tuples(
        st.sampled_from(["enemy", "friendly"]),
        st.sampled_from([(0, 0), (30, 30), (90, 0)]),
        st.integers(0, 1),
    ))),
    "acyclic tc": (TC, _facts(("e", 2)).filter(lambda f: f[1][0] < f[1][1])),
    "self-join": (SELF_JOIN, _facts(("e", 2))),
    "self-joined blocker": (SELF_JOINED_BLOCKER, _facts(("a", 1), ("c", 2))),
    "double negation": (DOUBLE_NEGATION, _facts(("a", 2), ("b", 1))),
    "computed join": (COMPUTED_JOIN, _facts(("a", 1), ("b", 1))),
    "computed blocker": (COMPUTED_BLOCKER, _facts(("a", 1), ("b", 1))),
    "two-rule rederivation": (
        TWO_RULE_REDERIVATION, _facts(("m", 1), ("n", 1), ("b", 1), ("c", 1)),
    ),
    # Base facts of derived predicates, read positively, negated and
    # on top: each stays until deleted as a base fact.
    "base facts of derived predicates": (
        "q(X) :- p(X). r(X, Y) :- q(X), e(X, Y), not q(Y).",
        _facts(("p", 1), ("q", 1), ("e", 2), ("r", 2)),
    ),
    "base facts of a closure": (
        TC, _facts(("e", 2), ("t", 2)).filter(lambda f: f[1][0] < f[1][1]),
    ),
    # Head aggregates (see AGGREGATES): every function, grouped and
    # ungrouped, over float values too.
    **{name: (text, AGGREGATE_FACTS) for name, text in AGGREGATES.items()},
}


@pytest.mark.parametrize("name", sorted(MAINTAINED))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_maintainers_agree_with_from_scratch_evaluation(name, data):
    """Property: after any insert/delete sequence every maintainer's rows
    are :func:`evaluate`'s, the set-of-derivations and DRed stores are
    too, and counting counts each fact's derivations in that store."""
    text, fact = MAINTAINED[name]
    classes = [cls for cls in ALL_MAINTAINERS
               if cls is not CountingEvaluator or not is_recursive(parse_program(text))]
    assert_maintainers_match(
        text, data.draw(st.lists(st.tuples(st.booleans(), fact), max_size=12)), classes)


def assert_maintainers_match(text, script, classes):
    """Play the insert / delete ``script`` on a fresh maintainer of each
    of ``classes``: rows, and the store or counts, are
    :func:`evaluate`'s over the base facts left."""
    program = parse_program(text)
    maintainers = [cls(program) for cls in classes]
    live = set()
    for is_insert, (pred, args) in script:
        for ev in maintainers:
            (ev.insert if is_insert else ev.delete)(pred, args)
        (live.add if is_insert else live.discard)((pred, args))
    expected = oracle(text, live)
    for ev in maintainers:
        for pred in program.idb_predicates():
            assert ev.rows(pred) == expected.rows(pred), (type(ev).__name__, pred)
    store = expected.derivations.snapshot()
    for ev in maintainers:
        if isinstance(ev, CountingEvaluator):
            assert ev.counts == {fact: len(ds) for fact, ds in store.items()}
        else:
            assert ev.db.derivations.snapshot() == store, type(ev).__name__
