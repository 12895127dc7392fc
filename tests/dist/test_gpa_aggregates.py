"""Head aggregates in GPAEngine: the distributed half of the
maintainer property in tests/core/test_incremental.py.

After random insert/delete sequences, in barrier and pipelined mode on
a 4x4 grid, every row equals evaluate()'s and ``derivation_store()``
spells every fact — valuation facts, group rows with the fold's
derivation — as the central store does."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregates import fold
from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program
from repro.core.terms import Constant
from repro.dist.derived import FactRef, WireDerivation
from repro.dist.gpa import GPAEngine, ResultMsg
from repro.net.network import GridNetwork
from repro.streams.tuples import TupleID

from tests.core.test_incremental import AGGREGATES, AGGREGATE_FACTS

MODES = ("barrier", "pipelined")


def central(program, facts):
    """Rows and ``{(pred, args): {(rule id, body facts)}}`` of
    evaluate() over ``facts``."""
    db = Database()
    for pred, args in facts:
        db.assert_fact(pred, args)
    evaluate(program, db)
    rows = {p: db.rows(p) for p in program.idb_predicates()}
    store = {
        fact: {(d.rule_id, d.body_facts) for d in derivations}
        for fact, derivations in db.derivations.snapshot().items()
    }
    return rows, store


def run_gpa(text, updates, mode):
    """Apply ``updates`` — (insert?, (pred, args)) — on a 4x4 grid,
    draining after each; inserting a live fact or deleting an absent
    one changes nothing, as in the central maintainers."""
    net = GridNetwork(4, seed=3)
    engine = GPAEngine(text, net, mode=mode).install()
    live = {}
    for i, (is_insert, fact) in enumerate(updates):
        pred, args = fact
        if is_insert and fact not in live:
            node = (5 * i) % 16
            live[fact] = (node, engine.publish(node, pred, args))
        elif not is_insert and fact in live:
            node, tid = live.pop(fact)
            engine.retract(node, pred, args, tid)
        net.run_all()
    rows = {p: engine.rows(p) for p in engine.plan.idb}
    store = {
        (pred, args): {(d.rule_id, tuple((f.pred, f.args) for f in d.facts))
                       for d in ds}
        for (pred, args), ds in engine.derivation_store().items()
    }
    return rows, store, list(live)


@pytest.mark.parametrize("name", sorted(AGGREGATES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gpa_aggregates_agree_with_evaluate(name, data):
    text = AGGREGATES[name]
    updates = data.draw(st.lists(st.tuples(st.booleans(), AGGREGATE_FACTS), max_size=12))
    for mode in MODES:
        rows, store, live = run_gpa(text, updates, mode)
        assert (rows, store) == central(parse_program(text), live), mode


@pytest.mark.parametrize("mode", MODES)
def test_every_arrival_order_folds_one_row(mode):
    """sum([0.1, 0.2, 0.3]) is 0.6000000000000001 in that order and 0.6
    reversed: a home folding in arrival order would disagree with
    itself.  Every order gives evaluate()'s row."""
    values = [0.1, 0.2, 0.3]
    assert len({fold(f, list(p)) for p in itertools.permutations(values)
                for f in ("sum", "avg")}) == 2
    text = "total(sum(V), avg(V)) :- reading(N, V)."
    expected = central(parse_program(text), [("reading", (0, v)) for v in values])[0]
    for order in itertools.permutations(values):
        updates = [(True, ("reading", (0, v))) for v in order]
        assert run_gpa(text, updates, mode)[0] == expected, order


HOT = "hot(N, V, E) :- reading(N, V, E), V > 70. "


def publish_epochs(text, epochs, mode="barrier"):
    """Every node of a 5x5 grid reads 60/65/70/75 (by id) plus the
    epoch, once per epoch."""
    net = GridNetwork(5, seed=8)
    engine = GPAEngine(text, net, mode=mode).install()
    for epoch in range(epochs):
        net.run_until(net.now + 5.0)
        for node in net.topology.node_ids:
            engine.publish(node, "reading", (node, 60.0 + node % 4 * 5 + epoch, epoch))
        net.run_all()
    return engine, net


@pytest.mark.parametrize("mode", MODES)
def test_each_epoch_group_keeps_its_own_row(mode):
    """A count grouped by epoch: epoch 0 has the six 75s, epoch 1 the
    71s and 76s too; each epoch's group is folded at its own home."""
    engine, _net = publish_epochs(HOT + "c(E, count(N), avg(V)) :- hot(N, V, E).", 2, mode)
    assert engine.rows("c") == {(0, 6, 75.0), (1, 12, 73.5)}
    homes = {home.id for home, _p, _a, _f in engine._visible("c#r1")}
    assert len(homes) <= 2


def test_readings_move_the_row_and_withdrawals_empty_it():
    """The row follows the readings: a new hot reading moves it, and
    once every valuation is withdrawn the group has no row at all."""
    net = GridNetwork(4, seed=4)
    engine = GPAEngine(HOT + "c(count(N), max(V)) :- hot(N, V, E).", net).install()
    published = []

    def read(node, value):
        args = (node, value, 0)
        published.append((node, args, engine.publish(node, "reading", args)))
        net.run_all()

    for node, value in [(1, 80.0), (5, 90.0), (9, 70.0)]:
        read(node, value)
    assert engine.rows("c") == {(2, 90.0)}
    read(12, 99.0)
    assert engine.rows("c") == {(3, 99.0)}
    for node, args, tid in published:
        engine.retract(node, "reading", args, tid)
    net.run_all()
    assert engine.rows("c") == set() and engine.rows("hot") == set()


def test_a_row_folded_back_at_one_instant_stays():
    """The home folds c(1) -> c(2) -> c(1) within one instant: the
    second add of c(1) must outrank the sub made just before it, so the
    stamps of one home's row updates strictly increase."""
    net = GridNetwork(3, seed=1)
    engine = GPAEngine("c(count(_)) :- r(X, _).", net).install()
    engine.publish(0, "r", (1, "a"))
    net.run_all()
    assert engine.rows("c") == {(1,)}
    home = net.node(engine.ght.node_for_fact("c#r0", ()))
    support = FactRef("r", (Constant(2), Constant("b")), TupleID(4, 0.0, 0))
    valuation = (Constant(2),)
    for op in ("add", "sub"):
        derivation = WireDerivation(0, (support,))
        engine._on_result(home, ResultMsg("c#r0", valuation, derivation, op, net.now))
    net.run_all()
    assert engine.rows("c") == {(1,)}
