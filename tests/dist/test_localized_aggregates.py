"""Head aggregates in LocalizedEngine: a group is homed at the node its
head's placement attribute names, its valuations are placed there and
folded there on a flip, and the row takes the head's placement.

After random insert/delete sequences every row equals evaluate()'s, and
every fact's records where it is stored — valuation facts, group rows
with the fold's ``(rule id)`` record — equal the central store's."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.derivations import fact_ref
from repro.core.errors import PlanError
from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program
from repro.dist.localized import (
    LocalizedEngine,
    Placement,
    logich_placements,
    logich_program,
    visible_rows,
)
from repro.net.network import GridNetwork, RandomNetwork

from tests.core.test_incremental import AGGREGATES, AGGREGATE_FACTS
from tests.dist.test_fact_identity import store_records

#: Every AGGREGATES program as localized mode runs it, every fact placed
#: on its first argument: as it is where every join is local and every
#: aggregate is grouped on that argument, else its grouped variant.
LOCALIZED = {
    "count and sum of valuations": "c(X, count(_)) :- r(X, _). s(X, sum(X)) :- r(X, _).",
    "grouped folds": AGGREGATES["grouped folds"],
    "ungrouped folds": "u(X, count(_), sum(Y), min(Y), max(Y), avg(Y)) :- r(X, Y).",
    "aggregate feeding a rule": AGGREGATES["aggregate feeding a rule"],
    # k's blocker b(Y) lives at node Y, not at k's group's home X.
    "negation below an aggregate": (
        "ok(X, Y) :- r(X, Y), not b(X). n(X, count(Y)) :- ok(X, Y). "
        "k(X, sum(Y)) :- r(X, Y), not b(X)."
    ),
}


def central(program, facts):
    """Rows and ``{head ref: {record}}`` of evaluate() over ``facts``."""
    db = Database()
    for pred, args in facts:
        db.assert_fact(pred, args)
    evaluate(program, db)
    rows = {p: db.rows(p) for p in program.idb_predicates()}
    return rows, store_records(db)


def run_localized(program, updates):
    """Seed / retract ``updates`` — (insert?, (pred, args)) — at the node
    their first argument names on a 2x2 grid, draining after each."""
    net = GridNetwork(2, seed=3)
    preds = program.idb_predicates() | {"r", "b"}  # b need not be read
    engine = LocalizedEngine(program, net, {p: Placement(0) for p in preds}).install()
    live = {}
    for is_insert, (pred, args) in updates:
        if is_insert:
            engine.seed(args[0], pred, args)
            live[(pred, args)] = None
        else:
            engine.retract(args[0], pred, args)
            live.pop((pred, args), None)
        net.run_all()
    rows = {p: visible_rows(engine, p) for p in program.idb_predicates()}
    store = {}
    for runtime in engine.runtimes.values():
        for pred, args, fact in runtime.placed.visible():
            if pred in ("r", "b"):
                continue
            head = fact_ref((pred, args))
            assert head not in store, f"{pred}{args} is stored twice"
            store[head] = set(fact.derivations)
    return rows, store, list(live)


@pytest.mark.parametrize("name", sorted(AGGREGATES))
def test_every_aggregates_program_has_a_localized_form(name):
    """A program that does not admit a placement as it is raises at
    construction; its grouped variant does not."""
    placements = lambda p: {q: Placement(0) for q in p.idb_predicates() | p.edb_predicates()}
    program = parse_program(AGGREGATES[name])
    if LOCALIZED[name] != AGGREGATES[name]:
        with pytest.raises(PlanError, match="no group"):
            LocalizedEngine(program, GridNetwork(2), placements(program))
    program = parse_program(LOCALIZED[name])
    LocalizedEngine(program, GridNetwork(2), placements(program))


@pytest.mark.parametrize("name", sorted(LOCALIZED))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_localized_aggregates_agree_with_evaluate(name, data):
    program = parse_program(LOCALIZED[name])
    updates = data.draw(st.lists(st.tuples(st.booleans(), AGGREGATE_FACTS), max_size=12))
    rows, store, live = run_localized(program, updates)
    assert (rows, store) == central(program, live)


KIDS = "kids(X, count(Y)) :- h(X, Y, _)."


@pytest.mark.parametrize("net", [
    GridNetwork(5, seed=1), RandomNetwork(20, radius=3.5, seed=21),
], ids=["grid5", "random20"])
def test_shortest_path_tree_kids(net):
    """A parent's child count on logicH's tree, folded at the parent
    under logicH's optimistic ``h`` retractions."""
    root = net.topology.node_ids[0]
    placements = {**logich_placements(), "kids": Placement(0)}
    engine = LocalizedEngine(logich_program() + KIDS, net, placements).install()
    engine.seed_edges("g")
    engine.seed(root, "h", (root, root, 0))
    net.run_all()
    db = Database()
    for a, nbrs in net.topology.adjacency.items():
        for b in nbrs:
            db.assert_fact("g", (a, b))
    db.assert_fact("h", (root, root, 0))
    evaluate(parse_program(logich_program() + KIDS), db)
    assert visible_rows(engine, "h") == db.rows("h")
    assert visible_rows(engine, "kids") == db.rows("kids")
    # Every tree edge is counted once, at its parent.
    assert sum(n for _x, n in db.rows("kids")) == len(db.rows("h"))
