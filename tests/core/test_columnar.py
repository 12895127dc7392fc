"""Differential tests for columnar fact storage (repro.core.columnar +
the columnar ``Relation`` in repro.core.eval).

The columnar layout is a pure accelerator: the tuple-level ``Relation``
API (add / discard / candidates / lookup / scan / membership) must
behave exactly like the plain set-plus-hash-index store it replaced.
These tests pit the relation against a brute-force model over
hypothesis-generated operation interleavings — including discards of
indexed rows, re-adds of tombstoned tuples, mixed-arity (ragged) rows,
and index construction mid-stream — and pin the interner's id/flag
semantics the numpy kernels rely on.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import columnar
from repro.core.builtins import BuiltinRegistry, eval_term
from repro.core.columnar import (
    F_FN,
    F_INT,
    F_NUM,
    F_SMALL,
    GLOBAL_INTERNER,
    Interner,
    MAX_EXACT_INT,
)
from repro.core.eval import Database, Relation
from repro.core.parser import parse_program
from repro.core.terms import Constant, FunctionTerm, Substitution, Variable, make_list


def const_tuple(values):
    return tuple(Constant(v) for v in values)


# ---------------------------------------------------------------------------
# Interner semantics
# ---------------------------------------------------------------------------


class TestInterner:
    def test_ids_are_dense_and_stable(self, monkeypatch):
        monkeypatch.setattr(columnar, "INITIAL_CAPACITY", 2)
        interner = Interner()
        terms = [Constant(v) for v in ("a", "b", 1, 2.5, "c")]
        ids = [interner.intern(t) for t in terms]
        assert ids == list(range(5))  # dense, insertion-ordered
        assert [interner.intern(t) for t in terms] == ids  # stable
        assert len(interner) == 5

    def test_equal_terms_conflate(self):
        # Constant(2) == Constant(2.0), so they must share an id —
        # exactly like they collide in the set-based store.
        interner = Interner()
        a = interner.intern(Constant(2))
        b = interner.intern(Constant(2.0))
        assert a == b
        # The canonical term is the first-interned instance.
        assert interner.term(a).value == 2
        assert isinstance(interner.term(a).value, int)

    def test_get_does_not_assign(self):
        interner = Interner()
        assert interner.get(Constant("never-seen")) is None
        tid = interner.intern(Constant("seen"))
        assert interner.get(Constant("seen")) == tid

    def test_numeric_flags(self):
        interner = Interner()
        cases = [
            (Constant(7), F_NUM | F_INT | F_SMALL),
            (Constant(-3.5), F_NUM | F_SMALL),
            (Constant(2 ** 30), F_NUM | F_INT),  # big but exact
            (Constant(MAX_EXACT_INT * 2), 0),  # beyond float64 exactness
            (Constant(float("nan")), 0),
            (Constant("x"), 0),
            (Constant(True), 0),  # bools are not vectorized numbers
        ]
        for term, expected in cases:
            tid = interner.intern(term)
            assert int(interner.flags_of(np.array([tid]))[0]) == expected, term

    def test_function_terms_flagged(self):
        interner = Interner()
        fn = FunctionTerm("f", (Constant(1),))
        tid = interner.intern(fn)
        assert int(interner.flags_of(np.array([tid]))[0]) == F_FN

    def test_nums_payloads(self):
        interner = Interner()
        ids = np.array([interner.intern(Constant(v)) for v in (3, -1.5, 10)])
        assert interner.nums_of(ids).tolist() == [3.0, -1.5, 10.0]

    def test_intern_numeric_reuses_existing_ids(self):
        interner = Interner()
        tid = interner.intern(Constant(4))
        ids = interner.intern_numeric(np.array([4.0, 4.0, 5.0]), True, 3)
        assert ids[0] == tid and ids[1] == tid
        assert interner.term(int(ids[2])) == Constant(5)

    def test_intern_numeric_scalar_and_int_typing(self):
        interner = Interner()
        ids = interner.intern_numeric(2.0, True, 4)
        assert ids.shape == (4,) and len(set(ids.tolist())) == 1
        assert interner.term(int(ids[0])).value == 2
        fids = interner.intern_numeric(np.array([2.5]), False, 1)
        assert interner.term(int(fids[0])).value == 2.5

    def test_normalize_ids_identity_without_function_terms(self):
        ids = np.array([
            GLOBAL_INTERNER.intern(Constant(v)) for v in ("p", "q", 3)
        ])
        out = GLOBAL_INTERNER.normalize_ids(ids, BuiltinRegistry())
        assert out is ids  # no F_FN ids: returned untouched

    def test_grow_preserves_metadata(self, monkeypatch):
        monkeypatch.setattr(columnar, "INITIAL_CAPACITY", 1)
        interner = Interner()
        ids = [interner.intern(Constant(v)) for v in range(40)]
        nums = interner.nums_of(np.array(ids))
        assert nums.tolist() == [float(v) for v in range(40)]

    def test_grow_preserves_flags(self, monkeypatch):
        monkeypatch.setattr(columnar, "INITIAL_CAPACITY", 1)
        interner = Interner()
        terms = [Constant(3), Constant(2.5), Constant("a"),
                 FunctionTerm("f", (Constant(1),)), Constant(2 ** 40)]
        ids = np.array([interner.intern(t) for t in terms])
        assert len(interner._nums) >= len(terms)  # grew from one row
        assert interner.flags_of(ids).tolist() == [
            F_NUM | F_INT | F_SMALL, F_NUM | F_SMALL, 0, F_FN, F_NUM | F_INT,
        ]


# ---------------------------------------------------------------------------
# Relation vs. brute-force model
# ---------------------------------------------------------------------------


class RelationModel:
    """The obvious store: a set of tuples, scanned for every probe."""

    def __init__(self):
        self.rows = set()

    def add(self, args):
        if args in self.rows:
            return False
        self.rows.add(args)
        return True

    def discard(self, args):
        if args not in self.rows:
            return False
        self.rows.remove(args)
        return True

    def lookup(self, bound):
        return {
            args for args in self.rows
            if all(pos < len(args) and args[pos] == term
                   for pos, term in bound)
        }


def op_sequences(max_value, max_ops):
    """Interleavings of add/discard/lookup over a small tuple universe
    (small on purpose: collisions, re-adds and empty probes are the
    interesting paths)."""
    value = st.integers(0, max_value)
    arity2 = st.tuples(value, value)
    return st.lists(
        st.one_of(
            st.tuples(st.just("add"), arity2),
            st.tuples(st.just("discard"), arity2),
            st.tuples(st.just("lookup0"), value),
            st.tuples(st.just("lookup1"), value),
            st.tuples(st.just("lookup01"), arity2),
        ),
        max_size=max_ops,
    )


class TestRelationDifferential:
    @settings(max_examples=60, deadline=None)
    @given(ops=op_sequences(max_value=4, max_ops=60))
    def test_interleaved_ops_match_model(self, ops):
        rel = Relation("t")
        model = RelationModel()
        for op, payload in ops:
            if op == "add":
                args = const_tuple(payload)
                assert rel.add(args) == model.add(args)
            elif op == "discard":
                args = const_tuple(payload)
                assert rel.discard(args) == model.discard(args)
            else:
                if op == "lookup0":
                    bound = [(0, Constant(payload))]
                elif op == "lookup1":
                    bound = [(1, Constant(payload))]
                else:
                    bound = [(0, Constant(payload[0])),
                             (1, Constant(payload[1]))]
                got = set(rel.lookup(bound))
                exact = model.lookup(bound)
                if len(bound) == 1:
                    # Single ground position: the probe is exact.
                    assert got == exact
                else:
                    # Multi-position probes return the smallest indexed
                    # bucket — a candidate superset the executor then
                    # filters by unification.  Soundness: every exact
                    # match is returned; every candidate is a live row
                    # matching at least one bound position.
                    assert exact <= got
                    for args in got:
                        assert args in model.rows
                        assert any(args[pos] == term for pos, term in bound)
            assert len(rel) == len(model.rows)
            assert set(rel) == model.rows
        assert set(rel.scan()) == model.rows

    @settings(max_examples=80, deadline=None)
    @given(ops=st.lists(
        st.tuples(
            st.sampled_from(["add", "add_ids", "discard", "probe", "lookup", "index"]),
            # ints and floats of one value are one term (1 == 1.0); a
            # third position makes the row ragged.
            st.lists(st.sampled_from([0, 1, 1.0, 2, 2.0, "a"]), min_size=2,
                     max_size=3).filter(lambda v: len(v) == 2 or v[0] == "a"),
        ),
        max_size=50,
    ))
    def test_id_keyed_rows_match_a_term_keyed_dict(self, ops):
        """Membership is keyed by id tuples; the tuple API answers as a
        dict keyed by the term tuples, which keeps the first spelling
        added and iterates in insertion order.  Rows added by their ids
        take the interner's spelling, as a batch or, into an indexed,
        empty or ragged relation, one at a time."""
        rel = Relation("t")
        model = {}  # term tuple -> stored (first-added) spelling
        for op, values in ops:
            args = tuple(map(Constant, values))
            if op == "add":
                assert rel.add(args) == (args not in model)
                model.setdefault(args, args)
            elif op == "add_ids":  # twice in one batch, spelled canonically
                key = tuple(map(GLOBAL_INTERNER.intern, args))
                end = len(rel.terms_rows)
                rows = rel.add_ids([key, key])
                assert rows[0] == rows[1] and (rows[0] >= end) == (args not in model)
                assert len(rel.terms_rows) == end + (args not in model)
                model.setdefault(args, tuple(map(GLOBAL_INTERNER.term, key)))
            elif op == "discard":
                assert rel.discard(args) == (model.pop(args, None) is not None)
            elif op == "probe":
                assert (args in rel) == (args in model)
                stored = rel.stored(args)
                assert stored == model.get(args)
                if stored is not None:  # the stored spelling, not the probe's
                    assert [type(t.value) for t in stored] == [
                        type(t.value) for t in model[args]]
            elif op == "index":  # build the index on position 0 mid-stream
                rel.lookup([(0, args[0])])
            else:
                bound = [(0, args[0]), (1, args[1])]
                exact = [row for row in model.values()
                         if all(row[pos] == term for pos, term in bound)]
                got = rel.lookup(bound)
                assert set(exact) <= set(got)
                assert all(row in model and any(row[p] == t for p, t in bound)
                           for row in got)
                x = Variable("X")
                subst = Substitution().extended(x, args[1])
                cands = rel.candidates((args[0], x), subst)
                assert set(exact) <= set(cands)
            assert len(rel) == len(model)
            assert list(rel) == list(model.values())  # the same order
            rows = list(rel)
            assert [type(t.value) for row in rows for t in row] == [
                type(t.value) for row in model.values() for t in row]
        assert rel.scan() == tuple(model.values())
        assert list(rel.candidates((Variable("X"), Variable("Y")),
                                   Substitution())) == list(model.values())
        assert rel.ragged == (len({len(row) for row in rel.terms_rows}) > 1)
        assert list(rel.id_tuples()) == [tuple(map(GLOBAL_INTERNER.get, row))
                                         for row in model.values()]
        if model and not rel.ragged:  # the id columns hold the live rows
            live = rel.live_rows()
            columns = [rel.np_column(pos)[live].tolist() for pos in range(rel.arity)]
            assert list(zip(*columns)) == list(rel.id_tuples())

    def test_spellings_share_a_row(self):
        rel = Relation("t")
        one, one_f = const_tuple((1, "a")), const_tuple((1.0, "a"))
        assert rel.add(one) and not rel.add(one_f)
        assert one_f in rel and rel.stored(one_f)[0].value.__class__ is int
        assert rel.discard(one_f) and one not in rel and len(rel) == 0
        assert rel.add(one_f)  # re-added in the other spelling: a new row
        assert rel.stored(one)[0].value.__class__ is float
        assert list(rel) == [one_f] and len(rel.terms_rows) == 2
        assert rel.add_ids([tuple(map(GLOBAL_INTERNER.get, one))]) == [1]

    def test_add_ids_inserts_a_repeated_key_once(self):
        rel = Relation("t")
        rel.add(const_tuple((1, 2)))
        key = tuple(map(GLOBAL_INTERNER.intern, const_tuple((3, 4))))
        old = tuple(map(GLOBAL_INTERNER.get, const_tuple((1, 2))))
        assert rel.add_ids([key, old, key]) == [1, 0, 1]
        assert list(rel) == [const_tuple((1, 2)), const_tuple((3, 4))]
        assert rel.np_column(0).tolist() == [old[0], key[0]]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 80),
        build_at=st.integers(0, 80),
    )
    def test_lazy_index_built_mid_stream(self, seed, n, build_at):
        """An index built after an arbitrary prefix of adds/discards must
        answer identically to one maintained from the start."""
        rng = random.Random(seed)
        rel = Relation("t")
        model = RelationModel()
        for i in range(n):
            args = const_tuple((rng.randrange(5), rng.randrange(5)))
            if rng.random() < 0.25:
                assert rel.discard(args) == model.discard(args)
            else:
                assert rel.add(args) == model.add(args)
            if i == build_at:
                # Force position-0 index construction now.
                rel.lookup([(0, Constant(rng.randrange(5)))])
        for v in range(5):
            bound = [(0, Constant(v))]
            assert set(rel.lookup(bound)) == model.lookup(bound)
            bound = [(1, Constant(v))]
            assert set(rel.lookup(bound)) == model.lookup(bound)

    def test_lookup_for_never_interned_term_is_empty(self):
        rel = Relation("t")
        rel.add(const_tuple((1, 2)))
        assert list(rel.lookup([(0, Constant("no-such-value-xyzzy"))])) == []

    def test_ragged_arities_supported(self):
        rel = Relation("t")
        assert rel.add(const_tuple((1, 2)))
        assert rel.add(const_tuple((1, 2, 3)))
        assert rel.add(const_tuple((1,)))
        assert rel.ragged  # columnar mirror dropped, tuple view intact
        assert set(rel.lookup([(0, Constant(1))])) == {
            const_tuple((1, 2)), const_tuple((1, 2, 3)), const_tuple((1,)),
        }
        assert set(rel.lookup([(2, Constant(3))])) == {const_tuple((1, 2, 3))}
        assert rel.discard(const_tuple((1, 2)))
        assert set(rel.lookup([(0, Constant(1))])) == {
            const_tuple((1, 2, 3)), const_tuple((1,)),
        }

    def test_discard_then_reuse_row_reindexes(self):
        rel = Relation("t")
        a, b = const_tuple((1, 2)), const_tuple((1, 3))
        rel.add(a)
        rel.lookup([(0, Constant(1))])  # build index over live rows
        rel.discard(a)
        rel.add(b)
        rel.add(a)  # re-added after tombstoning: gets a fresh row
        assert set(rel.lookup([(0, Constant(1))])) == {a, b}
        assert set(rel.lookup([(1, Constant(2))])) == {a}

    def test_candidates_counts_probes_and_binds_substitution(self):
        rel = Relation("t")
        rel.add(const_tuple((1, 2)))
        rel.add(const_tuple((2, 2)))
        x = Variable("X")
        subst = Substitution().extended(x, Constant(1))
        before = rel.probes
        got = set(rel.candidates((x, Variable("Y")), subst))
        assert got == {const_tuple((1, 2))}
        assert rel.probes == before + 1

    def test_scan_counts_scans_and_snapshots(self):
        rel = Relation("t")
        rel.add(const_tuple((1, 1)))
        before = rel.scans
        snap = rel.scan()
        assert rel.scans == before + 1
        rel.add(const_tuple((2, 2)))
        assert set(snap) == {const_tuple((1, 1))}  # snapshot, not a view

    def test_numpy_snapshots_track_versions(self):
        rel = Relation("t")
        rel.add(const_tuple((1, 2)))
        rel.add(const_tuple((3, 4)))
        col0 = rel.np_column(0)
        live = rel.live_rows()
        assert len(live) == 2
        assert [GLOBAL_INTERNER.term(int(t)) for t in col0[live]] == [
            Constant(1), Constant(3),
        ]
        rel.discard(const_tuple((1, 2)))
        live2 = rel.live_rows()
        assert len(live2) == 1
        assert GLOBAL_INTERNER.term(int(rel.np_column(0)[live2[0]])) == Constant(3)

    @staticmethod
    def ref(pred, values):
        return (pred, *[GLOBAL_INTERNER.get(t) for t in const_tuple(values)])

    def test_refs_are_row_aligned_and_cached(self):
        rel = Relation("t")
        _, row_a = rel.add_row(const_tuple((1, 2)))
        refs = rel.refs()
        assert refs[row_a] == self.ref("t", (1, 2))
        _, row_b = rel.add_row(const_tuple((3, 4)))
        rel.discard(const_tuple((1, 2)))
        assert rel.refs() is refs  # grown in place, one ref per row
        assert refs == [self.ref("t", (1, 2)), self.ref("t", (3, 4))]
        # Deleted and re-added, in another spelling: a new row, the same ref.
        _, row_c = rel.add_row(const_tuple((1.0, 2)))
        assert row_c != row_a and rel.refs()[row_c] == refs[row_a]

    def test_delta_rows_name_the_stored_rows(self):
        from repro.core.vector import _DeltaSource

        rel = Relation("t")
        _, row = rel.add_row(const_tuple((1, 2)))
        rel.add(const_tuple((5, 6)))
        _, tomb = rel.add_row(const_tuple((9, 9)))
        rel.discard(const_tuple((9, 9)))
        delta = _DeltaSource(rel, [tomb, row])
        # Batch rows translate to the relation's own rows, whose refs a
        # batch's records are built from: a tombstone keeps its ref.
        assert delta.relation_rows(np.array([1, 0, 1])).tolist() == [row, tomb, row]
        assert rel.refs()[tomb] == self.ref("t", (9, 9))
        assert delta.np_column(0).tolist() == [GLOBAL_INTERNER.get(Constant(9)),
                                               GLOBAL_INTERNER.get(Constant(1))]
        vals, order = delta.sorted_probe(0)
        assert vals.tolist() == sorted(vals.tolist())
        assert delta.np_column(0)[order].tolist() == vals.tolist()


# ---------------------------------------------------------------------------
# Database.rows: the column read against the row read
# ---------------------------------------------------------------------------


def _frozen(value):
    return tuple(map(_frozen, value)) if isinstance(value, list) else value


def rows_by_key(db, pred):
    """What ``Database.rows`` reads, row by row: each live row's ids,
    each id evaluated to a value in the spelling the interner met
    first."""
    terms = GLOBAL_INTERNER.terms
    return {
        tuple(_frozen(eval_term(terms[tid], db.registry)) for tid in key)
        for key in db.relation(pred).id_tuples()
    }


#: Ground terms of every kind a row holds: numbers that are one fact in
#: two spellings, strings, cons lists and uninterpreted terms.
ROW_TERMS = st.sampled_from([
    Constant(3), Constant(3.0), Constant(2.5), Constant("a"), Constant("b"),
    make_list([Constant(1), Constant(2.0)]), make_list([]),
    FunctionTerm("f", (Constant(1), Constant("a"))),
    FunctionTerm("f", (Constant(1.0), Constant("a"))),
])


class TestDatabaseRows:
    """``Database.rows`` reads a relation with no tombstone and one
    arity a column at a time, any other row by row: both read what the
    per-key reference reads."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(
        st.booleans(),
        st.lists(ROW_TERMS, min_size=1, max_size=3),
    ), max_size=25), st.booleans())
    def test_rows_equal_the_per_key_read(self, ops, ragged):
        db = Database()
        rel = db.relation("r")
        for is_add, args in ops:
            args = tuple(args if ragged else (args * 3)[:2])
            (rel.add if is_add else rel.discard)(args)
            assert db.rows("r") == rows_by_key(db, "r")
        assert (rel.id_columns() is not None) == (
            not rel.ragged and not rel._dead and len(rel) > 0)

    def test_first_spelling_wins(self):
        # Numbers no other test interns: the float is met first.
        db = Database()
        db.assert_fact("s", (918273645.0, "x"))
        db.assert_fact("t", (918273645, "y"))
        assert db.relation("t").id_columns() is not None
        (value, _), = db.rows("t")
        assert value == 918273645 and isinstance(value, float)
        assert db.rows("t") == rows_by_key(db, "t") == {(918273645.0, "y")}

    def test_lists_and_terms_read_as_values(self):
        db = Database()
        for fact in parse_program("p([1, 2], f(a)). p([], f(b)).").facts:
            db.assert_atom(fact)
        assert db.relation("p").id_columns() is not None
        rows = db.rows("p")
        assert rows == rows_by_key(db, "p")
        assert ((1, 2), FunctionTerm("f", (Constant("a"),))) in rows

    def test_tombstones_and_mixed_arities_read_by_key(self):
        db = Database()
        for args in [(1, 2), (3, 4), (5, 6)]:
            db.assert_fact("d", args)
        db.retract_fact("d", (3, 4))
        db.assert_fact("m", (1, 2))
        db.assert_fact("m", (1,))
        assert db.relation("d").id_columns() is None
        assert db.relation("m").id_columns() is None
        assert db.rows("d") == rows_by_key(db, "d") == {(1, 2), (5, 6)}
        assert db.rows("m") == rows_by_key(db, "m") == {(1, 2), (1,)}
