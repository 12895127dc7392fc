"""Body order never changes an answer.

A rule's subgoals may be written in any order: every engine must derive
what :func:`evaluate` derives.  The regression is a computed argument
(``b(X + 1)``) met as the trigger of a join, on every engine, in either
body order and either arrival order.  The property permutes every rule
body of the join grammar (``test_gpa_join_plans.cases``) and of the
aggregate programs (``test_incremental.AGGREGATES``) and requires the
same rows from :func:`evaluate` and from ``IncrementalEvaluator``, and
the same derivation store once each record lists its facts in the
original rule's body order.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.ast import Program, RelLiteral, Rule
from repro.core.derivations import fact_ref
from repro.core.errors import ReproError
from repro.core.eval import Database, evaluate
from repro.core.incremental import CountingEvaluator, DRedEvaluator, IncrementalEvaluator
from repro.core.parser import parse_program
from repro.core.plan import order_body
from repro.dist.gpa import GPAEngine
from repro.dist.localized import LocalizedEngine, Placement, visible_rows
from repro.net.network import GridNetwork

from tests.core.test_incremental import AGGREGATES, AGGREGATE_FACTS
from tests.core.test_xy_stages import nodes, staged_programs, stages
from tests.dist.test_gpa_join_plans import ARITY, cases, facts as join_facts

BODY_ORDERS = ["q(X) :- a(X), b(X + 1).", "q(X) :- b(X + 1), a(X)."]
ARRIVALS = {"a first": [("a", (1,)), ("b", (2,))], "b first": [("b", (2,)), ("a", (1,))]}
EXPECTED = {(1,)}


def test_evaluate_reads_either_body_order():
    for text in BODY_ORDERS:
        db = Database()
        for pred, args in ARRIVALS["a first"]:
            db.assert_fact(pred, args)
        evaluate(parse_program(text), db)
        assert db.rows("q") == EXPECTED


@pytest.mark.parametrize("text", BODY_ORDERS)
@pytest.mark.parametrize("arrival", sorted(ARRIVALS))
def test_localized(text, arrival):
    """Every predicate at node 0's placement on a 2x2 grid, both facts
    seeded at node 1: the join runs where the second fact arrives."""
    engine = LocalizedEngine(
        text, GridNetwork(2), {p: Placement(0) for p in "abq"}
    ).install()
    for pred, args in ARRIVALS[arrival]:
        engine.seed(1, pred, args)
        engine.network.run_all()
    assert visible_rows(engine, "q") == EXPECTED


@pytest.mark.parametrize("mode", ["barrier", "pipelined"])
@pytest.mark.parametrize("text", BODY_ORDERS)
@pytest.mark.parametrize("arrival", sorted(ARRIVALS))
def test_gpa(mode, text, arrival):
    net = GridNetwork(4, seed=3)
    engine = GPAEngine(text, net, strategy="pa", mode=mode).install()
    for pred, args in ARRIVALS[arrival]:
        engine.publish(5, pred, args)
        net.run_all()
    assert engine.rows("q") == EXPECTED


@pytest.mark.parametrize("maintainer", [IncrementalEvaluator, CountingEvaluator, DRedEvaluator])
@pytest.mark.parametrize("text", BODY_ORDERS)
@pytest.mark.parametrize("arrival", sorted(ARRIVALS))
def test_maintainers(maintainer, text, arrival):
    ev = maintainer(parse_program(text))
    for pred, args in ARRIVALS[arrival]:
        ev.insert(pred, args)
    assert ev.rows("q") == EXPECTED


# -- the property ---------------------------------------------------------------


def in_body_order(program, permuted):
    """``{head ref: {record}}`` of ``permuted``'s derivation store,
    each record's facts put back in ``program``'s body order.  The
    permuted rules hold the original literal objects, so a subgoal is
    found by identity."""
    moves = {}
    for rule, moved in zip(program.rules, permuted.rules):
        original, now = ([lit for lit in order_body(r) if isinstance(lit, RelLiteral)
                          and not lit.negated] for r in (rule, moved))
        at = [next(k for k, lit in enumerate(original) if lit is each) for each in now]
        moves[rule.rule_id] = [at.index(k) for k in range(len(at))]
    return lambda store: {
        head: {record if record[0] not in moves or len(record) == 1 else
               (record[0], *(record[1 + j] for j in moves[record[0]]))
               for record in records}
        for head, records in store.items()
    }


def rows(db, program):
    """The refs of every row of ``program``'s derived predicates."""
    return {fact_ref((p, args)) for p in program.idb_predicates() for args in db.relation(p)}


def records(db):
    """``{head ref: {record}}`` of ``db``'s derivation store."""
    return {
        fact_ref(fact): {(d.rule_id, *map(fact_ref, d.body_facts)) for d in derivations}
        for fact, derivations in db.derivations.snapshot().items()
    }


def permute(program, draw):
    return Program([
        Rule(rule.head, draw(st.permutations(rule.body)), rule.aggregates)
        for rule in program.rules
    ])


def run(program, base, script):
    """Rows and records after :func:`evaluate` over ``base``, and after
    each update of ``script`` through ``IncrementalEvaluator``; None
    where any of it raises (an error is not an answer, and whether a
    built-in raises can depend on which subgoal is joined first)."""
    db = Database()
    for pred, args in base:
        db.assert_fact(pred, args)
    try:
        evaluate(program, db)
        seen = [(rows(db, program), records(db))]
        ev = IncrementalEvaluator(program, db=db)
        for is_insert, (pred, args) in script:
            (ev.insert if is_insert else ev.delete)(pred, args)
            seen.append((rows(db, program), records(db)))
    except ReproError:
        return None
    return seen


def assert_body_order_free(data, text, base, updates):
    program = parse_program(text)
    permuted = permute(program, data.draw)
    script = data.draw(st.lists(st.tuples(st.booleans(), updates), max_size=6))
    want, got = run(program, base, script), run(permuted, base, script)
    assume(want is not None and got is not None)
    put_back = in_body_order(program, permuted)
    for (derived, store), (moved_derived, moved_store) in zip(want, got):
        assert moved_derived == derived
        assert put_back(moved_store) == store


SETTINGS = dict(deadline=None, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.data_too_large, HealthCheck.filter_too_much,
])


@settings(max_examples=80, **SETTINGS)
@given(data=st.data(), case=cases())
def test_permuted_join_programs(data, case):
    program, steps = case
    base = [(pred, args) for _gap, _node, pred, args, _retract in steps]
    updates = st.sampled_from(sorted(ARITY)).flatmap(
        lambda pred: st.tuples(st.just(pred), join_facts(pred)))
    assert_body_order_free(data, program, base, updates)


@pytest.mark.parametrize("name", sorted(AGGREGATES))
@settings(max_examples=25, **SETTINGS)
@given(data=st.data(), base=st.lists(AGGREGATE_FACTS, max_size=8))
def test_permuted_aggregate_programs(name, data, base):
    assert_body_order_free(data, AGGREGATES[name], base, AGGREGATE_FACTS)


#: Updates of the XY grammar's EDB predicates only.
XY_UPDATES = st.one_of(
    st.tuples(st.just("e"), st.tuples(nodes, nodes)),
    st.tuples(st.sampled_from(["start", "a"]), st.tuples(nodes, stages)),
)


@settings(max_examples=60, **SETTINGS)
@given(data=st.data(), case=staged_programs())
def test_permuted_xy_programs(data, case):
    """The staged grammar's computed subgoals (``not q(Y, D + c)``,
    ``p(X, D + 1)``) probe a computed column on the batch path."""
    text, base = case
    assert_body_order_free(data, text, base, XY_UPDATES)
