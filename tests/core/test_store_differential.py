"""The derivation store against the store it replaced.

``ReferenceStore`` is the dict of ``Derivation`` sets ``DerivationStore``
was before facts and derivations were recorded in id space, kept here as
the reference.  A Hypothesis script drives both through the public API
— ``1`` beside ``1.0``, facts deleted and re-added, derivations of facts
no relation stores, duplicate adds, batches whose heads repeat, lookups
of terms never interned — and every answer must agree: the store's one
writer, ``add_batch``, against the reference's ``add`` one derivation at
a time.  ``supporters`` is checked against brute
force over the snapshot instead: the reference's reverse index goes
stale when a removal leaves a body fact unused.

The digests pin the whole store of ``central_eval``'s two evaluations
(tc over a 90-node out-degree-4 digraph, logicH on an 8×8 grid, seed
12) as the object-keyed store recorded them; ``pytest tests/core
--oracle`` checks them on the oracle too.
"""

import hashlib
import random

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.core.columnar import GLOBAL_INTERNER
from repro.core.derivations import (
    Derivation,
    DerivationStore,
    FiringBatch,
    fact_ref,
)
from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program
from repro.core.terms import Constant

from .test_derivations import record


class ReferenceStore:
    """Fact key -> set of ``Derivation`` objects, with a lazy reverse
    index that ``remove_support`` does not prune."""

    def __init__(self):
        self._derivations = {}
        self._supports = None

    def _support_index(self):
        if self._supports is None:
            self._supports = {}
            for fact, derivs in self._derivations.items():
                for derivation in derivs:
                    for body_fact in derivation.body_facts:
                        self._supports.setdefault(body_fact, set()).add(fact)
        return self._supports

    def add(self, fact, derivation):
        existing = self._derivations.get(fact)
        if existing is None:
            self._derivations[fact] = {derivation}
            new = True
        else:
            before = len(existing)
            existing.add(derivation)
            if len(existing) == before:
                return False
            new = False
        if self._supports is not None:
            for body_fact in derivation.body_facts:
                self._supports.setdefault(body_fact, set()).add(fact)
        return new

    def remove_derivation(self, fact, derivation):
        derivs = self._derivations.get(fact)
        if derivs is None or derivation not in derivs:
            return False
        derivs.discard(derivation)
        if self._supports is not None:
            for body_fact in derivation.body_facts:
                if not any(d.uses(body_fact) for d in derivs):
                    self._supports.get(body_fact, set()).discard(fact)
        if derivs:
            return False
        del self._derivations[fact]
        return True

    def remove_support(self, removed):
        supports = self._support_index()
        emptied = []
        for dependent in list(supports.get(removed, ())):
            derivs = self._derivations.get(dependent)
            if derivs is None:
                continue
            kept = {d for d in derivs if not d.uses(removed)}
            if kept:
                self._derivations[dependent] = kept
            else:
                del self._derivations[dependent]
                emptied.append(dependent)
        supports.pop(removed, None)
        return emptied

    def discard_fact(self, fact):
        derivs = self._derivations.pop(fact, None)
        if derivs and self._supports is not None:
            for d in derivs:
                for body_fact in d.body_facts:
                    self._supports.get(body_fact, set()).discard(fact)

    def derivations_of(self, fact):
        return frozenset(self._derivations.get(fact, ()))

    def has_fact(self, fact):
        return fact in self._derivations

    def snapshot(self):
        return {fact: frozenset(ds) for fact, ds in self._derivations.items()}

    def __len__(self):
        return len(self._derivations)


#: A value no test interns: only ever looked up, never recorded.
NEVER = Constant(("never interned", 20251015))

PREDS = ("p", "q")

#: One spelling per value, interned here first so the interner spells
#: them so too, whichever test ran before.
PLAIN = [Constant(7201), Constant("s7201")]
#: ``7301`` and ``7301.0`` are one term in two spellings.
MIXED = [Constant(7301), Constant(7301.0)]
for _term in PLAIN:
    GLOBAL_INTERNER.intern(_term)


def facts(mixed):
    # Six facts, so that a script keeps meeting the same ones.
    return st.sampled_from(
        [(pred, ()) for pred in PREDS]
        + [(pred, (value,)) for pred in PREDS for value in (MIXED if mixed else PLAIN)]
    )


def script(mixed):
    fact = facts(mixed)
    queried = st.one_of(fact, fact, fact, st.just(("p", (NEVER,))))
    derivation = st.builds(
        Derivation, st.integers(0, 1), st.lists(fact, min_size=1, max_size=3)
    )
    # One rule call: heads of one predicate, repeats allowed.
    batch = st.tuples(st.sampled_from(PREDS), st.integers(0, 1), st.lists(
        st.tuples(fact, st.lists(fact, min_size=1, max_size=3)),
        min_size=1, max_size=4,
    ))
    return st.lists(st.one_of(
        st.tuples(st.just("add"), fact, derivation),
        st.tuples(st.just("add_batch"), batch),
        st.tuples(st.just("remove_derivation"), queried, derivation),
        st.tuples(st.just("remove_support"), queried),
        st.tuples(st.just("discard_fact"), queried),
        st.tuples(st.just("supporters"), queried),
        st.tuples(st.just("derivations_of"), queried),
        st.tuples(st.just("has_fact"), queried),
        st.tuples(st.just("store"), fact),
    ), min_size=10, max_size=60)


def brute_supporters(snapshot, fact):
    return {f for f, ds in snapshot.items() if any(d.uses(fact) for d in ds)}


def by_repr(keys):
    return [repr(key) for key in sorted(keys, key=repr)]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), mixed=st.booleans(), in_database=st.booleans())
def test_store_agrees_with_the_reference(data, mixed, in_database):
    db = Database()
    store = db.derivations if in_database else DerivationStore()
    reference = ReferenceStore()
    for op, *args in data.draw(script(mixed)):
        if op == "store":  # a relation now spells the fact its way
            pred, values = args[0]
            db.relation(pred).add(values)
            continue
        if op == "add_batch":
            (pred, rule_id, matches), = args
            heads = [(pred, head_args) for (_pred, head_args), _body in matches]
            got = store.add_batch(list(map(fact_ref, heads)), FiringBatch.of(
                rule_id, [(head[1], body) for head, (_h, body) in zip(heads, matches)]
            ))
            expected = [fact_ref(head) for head, (_h, body) in zip(heads, matches)
                        if reference.add(head, Derivation(rule_id, body))]
        elif op == "add":
            got, expected = record(store, *args), reference.add(*args)
        elif op == "supporters":
            got = store.supporters(*args)
            expected = brute_supporters(reference.snapshot(), *args)
        else:
            got, expected = getattr(store, op)(*args), getattr(reference, op)(*args)
        if op == "remove_support":
            got, expected = set(got), set(expected)  # set order both ways
        assert got == expected, (op, args)
        if op in ("supporters", "remove_support") and not mixed:
            # DRed walks supporters sorted by repr: the spelling and the
            # order must be the reference's wherever one spelling is used.
            assert by_repr(got) == by_repr(expected)
        assert store.snapshot() == reference.snapshot()
        assert len(store) == len(reference)
        assert set(store.facts()) == set(reference.snapshot())
    assert GLOBAL_INTERNER.get(NEVER) is None  # lookups intern nothing


def test_a_stored_fact_is_spelled_as_its_relation_stores_it():
    db = Database()
    db.assert_fact("b", (7401.0, "k"))
    record(db.derivations, ("out", (Constant(7401),)),
           Derivation(0, [("b", (Constant(7401), Constant("k")))]))
    (derivation,) = db.derivations.derivations_of(("out", (Constant(7401.0),)))
    assert repr(derivation) == "<rule 0: b('7401.0', 'k')>"


# -- the store of a whole evaluation, recorded before the change ---------------


def _spelled(fact):
    """``fact`` in one spelling per term: a batch head is spelled the way
    the interner first met its value in this process (``1`` or ``1.0``),
    and other tests may have met either first."""
    def value(term):
        v = term.value
        return int(v) if isinstance(v, (bool, float)) and float(v).is_integer() else v

    pred, args = fact
    return f"{pred}{tuple(map(value, args))!r}"


def store_digest(db):
    lines = sorted(
        _spelled(fact) + ": " + " ".join(sorted(
            f"{d.rule_id}<-{','.join(map(_spelled, d.body_facts))}"
            for d in derivations
        ))
        for fact, derivations in db.derivations.snapshot().items()
    )
    return hashlib.sha1("\n".join(lines).encode()).hexdigest()


def central_eval_dbs(seed=12, nodes=90, out_degree=4, grid=8):
    """``benchmarks/e2e``'s ``central_eval`` inputs at ``seed``, evaluated."""
    rng = random.Random(seed)
    edges = sorted(
        (u, v) for u in range(nodes) for v in rng.sample(range(nodes), out_degree)
    )

    def name(x, y):
        return "a" if (x, y) == (0, 0) else f"n{x}_{y}"

    tc_db, tree_db = Database(), Database()
    for edge in edges:
        tc_db.assert_fact("e", edge)
    for (x0, y0), (x1, y1) in nx.grid_2d_graph(grid, grid).edges():
        tree_db.assert_fact("g", (name(x0, y0), name(x1, y1)))
        tree_db.assert_fact("g", (name(x1, y1), name(x0, y0)))
    evaluate(parse_program("""
        tc(X, Y) :- e(X, Y).
        tc(X, Z) :- e(X, Y), tc(Y, Z).
    """), tc_db)
    evaluate(parse_program("""
        h(a, a, 0).
        h(a, X, 1) :- g(a, X).
        hp(Y, D + 1) :- h(_, Y, Dp), D + 1 > Dp, h(_, X, D), g(X, Y).
        h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
    """), tree_db)
    return tc_db, tree_db


def test_central_eval_stores_are_the_recorded_ones():
    tc_db, tree_db = central_eval_dbs()
    assert (len(tc_db.derivations), len(tree_db.derivations)) == (7830, 175)
    assert store_digest(tc_db) == "c81242530b40313a9a631d638ebc73b79d01ec98"
    assert store_digest(tree_db) == "efb8b23150750100eda6698390be6d4279637b6f"
