"""One fact identity from the central store to the wire: ``1`` and
``1.0`` are one fact, and a derivation is its rule plus one fact per
positive subgoal in body order.  Central evaluation, ``GPAEngine`` (both
modes; the self-join under both join schemes too) and
``LocalizedEngine`` must end with the same rows and the same
derivations of every derived fact.  The localized engine keeps the
central store's records, ``(rule_id, ref_1, ..., ref_k)`` over the
process-wide interner, and is compared with it in id space; GPA's
derivations with the central records as :func:`spell_record` spells
them."""

import pytest

from repro.core.derivations import fact_ref, spell_record
from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program
from repro.core.terms import Constant
from repro.dist.gpa import GPAEngine
from repro.dist.localized import LocalizedEngine, Placement
from repro.net.network import GridNetwork

MEET = """
    h(N, X) :- a(N, X).
    h(N, X) :- b(N, X).
    q(N, X, Y) :- h(N, X), c(N, X, Y).
"""

SELF_JOIN = "q(1) :- e(X, Y), e(Y, X)."


def terms(args):
    return tuple(Constant(a) for a in args)


def central(program, facts):
    """Rows and ``{head ref: {record}}`` of central evaluation over
    ``facts``: the derivation store's records."""
    db = Database()
    for pred, args in facts:
        db.assert_fact(pred, args)
    parsed = parse_program(program)
    evaluate(parsed, db)
    rows = {p: db.rows(p) for p in parsed.idb_predicates()}
    return rows, store_records(db)


def store_records(db):
    """``{head ref: {record}}`` of ``db``'s derivation store, read
    through its public :meth:`snapshot` and put back in id space (a
    stored spelling interns to the ids of every spelling of its fact)."""
    return {
        fact_ref(fact): {(d.rule_id, *map(fact_ref, d.body_facts)) for d in derivations}
        for fact, derivations in db.derivations.snapshot().items()
    }


def spelled(store):
    """``store`` with each record spelled ``(rule id, body facts)``."""
    return {head: set(map(spell_record, records)) for head, records in store.items()}


def run_gpa(program, steps, mode, scheme):
    """Publish / retract ``steps`` on a 4x4 grid, draining after each."""
    net = GridNetwork(4, seed=3)
    engine = GPAEngine(program, net, mode=mode, scheme=scheme).install()
    ids = {}
    for i, (op, pred, args) in enumerate(steps):
        node = (5 * i) % 16
        if op == "publish":
            ids[(pred, args)] = (node, engine.publish(node, pred, args))
        else:
            node, tid = ids[(pred, args)]
            engine.retract(node, pred, args, tid)
        net.run_all()
    rows = {p: engine.rows(p) for p in engine.plan.idb}
    return rows, stored(
        (((pred, args), fact) for runtime in engine.runtimes.values()
         for pred, args, fact in runtime.derived.visible()),
        lambda d: (d.rule_id, tuple((f.pred, f.args) for f in d.facts)),
    )


def run_localized(program, steps):
    """The same steps as base facts seeded at (and withdrawn from) the
    node their first argument names."""
    net = GridNetwork(2, seed=3)
    parsed = parse_program(program)
    preds = parsed.idb_predicates() | parsed.edb_predicates()
    engine = LocalizedEngine(
        parsed, net, {p: Placement(0, replicate_to_neighbors=True) for p in preds}
    ).install()
    for op, pred, args in steps:
        node = args[0]
        if op == "publish":
            engine.seed(node, pred, args)
        else:
            engine.retract(node, pred, args)
        net.run_all()
    idb = engine.plan.idb
    # A replica holds its home's fact as a rule -1 derivation; any
    # other visible copy is a second home.
    placed = [
        ((pred, args), fact) for runtime in engine.runtimes.values()
        for pred, args, fact in runtime.placed.visible()
        if pred in idb and any(record[0] >= 0 for record in fact.derivations)
    ]
    rows = {p: set() for p in idb}
    for (pred, args), _fact in placed:
        rows[pred].add(tuple(a.value for a in args))
    return rows, stored(placed)


def stored(facts, spell=lambda derivation: derivation):
    """``{head ref: {derivation}}`` of the visible derived facts where
    they are stored, each derivation as ``spell`` makes it; a fact
    stored twice is a wrong answer (two homes for one fact)."""
    store = {}
    for key, fact in facts:
        head = fact_ref(key)
        assert head not in store, f"{key} is stored twice"
        store[head] = set(map(spell, fact.derivations))
    return store


def final_facts(steps):
    live = {}
    for op, pred, args in steps:
        if op == "publish":
            live[(pred, args)] = None
        else:
            del live[(pred, args)]
    return [(pred, args) for pred, args in live]


def assert_engines_match(program, steps, central_run, schemes=("one-pass",)):
    """Every engine ends with the central rows and derivations: the
    localized engine's records equal the central ones, GPA's
    derivations their spelling."""
    rows, store = central_run
    assert run_localized(program, steps) == (rows, store), "localized"
    for mode in ("barrier", "pipelined"):
        for scheme in schemes:
            got = run_gpa(program, steps, mode, scheme)
            assert got == (rows, spelled(store)), f"gpa {mode} {scheme}"


A, B, C = ("a", (0, 1)), ("b", (0, 1.0)), ("c", (0, 1, 5))

MEET_CASES = {
    # The retractions must cancel every q, whichever spelling of h
    # derived it.
    "retracted": [("publish", *A), ("publish", *B), ("publish", *C),
                  ("retract", *A), ("retract", *B)],
    # h(0, 1) and h(0, 1.0) come from different rules and stay: one fact
    # with two derivations, at one GHT home.
    "different rules": [("publish", *A), ("publish", *B), ("publish", *C)],
    # Only one of them is withdrawn: the other keeps h and q.
    "one withdrawn": [("publish", *B), ("publish", *C), ("publish", *A),
                      ("retract", *A)],
}


@pytest.mark.parametrize("case", sorted(MEET_CASES))
def test_one_and_one_point_zero_meet(case):
    steps = MEET_CASES[case]
    rows, store = central_run = central(MEET, final_facts(steps))
    if case == "retracted":
        assert rows["q"] == set() and store == {}
    else:
        assert rows["q"] == {(0, 1, 5)}
        # h(0, 1) and h(0, 1.0) share one ref: one record set.
        h = fact_ref(("h", terms((0, 1))))
        assert h == fact_ref(("h", terms((0, 1.0))))
        assert len(store[h]) == 1 + (case == "different rules")
    assert_engines_match(MEET, steps, central_run)


def test_self_join_stores_match_central():
    """Both subgoals of a self-join can match either fact: central
    records two derivations of q(1), and so must the wire."""
    steps = [("publish", "e", (0, 1)), ("publish", "e", (1, 0))]
    rows, store = central_run = central(SELF_JOIN, final_facts(steps))
    e01, e10 = fact_ref(("e", terms((0, 1)))), fact_ref(("e", terms((1, 0))))
    rule_id = parse_program(SELF_JOIN).rules[0].rule_id
    assert store[fact_ref(("q", terms((1,))))] == {
        (rule_id, e01, e10), (rule_id, e10, e01)
    }
    assert_engines_match(SELF_JOIN, steps, central_run, ("one-pass", "multi-pass"))
