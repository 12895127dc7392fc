"""Tests for derivation bookkeeping and proof trees."""

from repro.core.derivations import (
    Derivation,
    DerivationStore,
    FiringBatch,
    build_proof_tree,
    fact_ref,
    is_locally_nonrecursive,
)
from repro.core.terms import Constant


def fact(pred, *values):
    return (pred, tuple(Constant(v) for v in values))


def record(store, fact, derivation):
    """Record one derivation through the store's one writer; True when
    ``fact`` had no derivation before."""
    batch = FiringBatch.of(derivation.rule_id, [(fact[1], derivation.body_facts)])
    return bool(store.add_batch([fact_ref(fact)], batch))


class TestDerivation:
    def test_equality(self):
        d1 = Derivation(0, [fact("e", 1)])
        d2 = Derivation(0, [fact("e", 1)])
        assert d1 == d2 and hash(d1) == hash(d2)

    def test_rule_id_distinguishes(self):
        assert Derivation(0, [fact("e", 1)]) != Derivation(1, [fact("e", 1)])

    def test_uses(self):
        d = Derivation(0, [fact("e", 1), fact("e", 2)])
        assert d.uses(fact("e", 1))
        assert not d.uses(fact("e", 3))


class TestDerivationStore:
    def test_add_new(self):
        store = DerivationStore()
        assert record(store, fact("p", 1), Derivation(0, [fact("e", 1)]))
        assert store.has_fact(fact("p", 1))

    def test_add_duplicate_derivation(self):
        store = DerivationStore()
        d = Derivation(0, [fact("e", 1)])
        record(store, fact("p", 1), d)
        assert not record(store, fact("p", 1), d)
        assert len(store.derivations_of(fact("p", 1))) == 1

    def test_second_derivation_not_new(self):
        store = DerivationStore()
        record(store, fact("p", 1), Derivation(0, [fact("e", 1)]))
        assert not record(store, fact("p", 1), Derivation(1, [fact("f", 1)]))
        assert len(store.derivations_of(fact("p", 1))) == 2

    def test_remove_support_empties(self):
        store = DerivationStore()
        record(store, fact("p", 1), Derivation(0, [fact("e", 1)]))
        emptied = store.remove_support(fact("e", 1))
        assert emptied == [fact("p", 1)]
        assert not store.has_fact(fact("p", 1))

    def test_remove_support_keeps_alternatives(self):
        store = DerivationStore()
        record(store, fact("p", 1), Derivation(0, [fact("e", 1)]))
        record(store, fact("p", 1), Derivation(1, [fact("f", 1)]))
        assert store.remove_support(fact("e", 1)) == []
        assert store.has_fact(fact("p", 1))

    def test_remove_derivation(self):
        store = DerivationStore()
        d1 = Derivation(0, [fact("e", 1)])
        d2 = Derivation(1, [fact("f", 1)])
        record(store, fact("p", 1), d1)
        record(store, fact("p", 1), d2)
        assert not store.remove_derivation(fact("p", 1), d1)
        assert store.remove_derivation(fact("p", 1), d2)
        assert not store.has_fact(fact("p", 1))

    def test_remove_absent_derivation_noop(self):
        store = DerivationStore()
        record(store, fact("p", 1), Derivation(0, [fact("e", 1)]))
        assert not store.remove_derivation(fact("p", 1), Derivation(9, [fact("z", 0)]))

    def test_discard_fact_cleans_reverse_index(self):
        store = DerivationStore()
        record(store, fact("p", 1), Derivation(0, [fact("e", 1)]))
        store.discard_fact(fact("p", 1))
        assert store.remove_support(fact("e", 1)) == []


class TestExactReverseIndex:
    """``supporters(f)`` is exactly the facts with a derivation through
    ``f``, also after ``remove_support`` took derivations away."""

    def test_emptied_fact_leaves_its_other_supporters(self):
        store = DerivationStore()
        record(store, fact("d", 1), Derivation(0, [fact("a", 1), fact("b", 1)]))
        assert store.supporters(fact("b", 1)) == {fact("d", 1)}  # index built
        assert store.remove_support(fact("a", 1)) == [fact("d", 1)]
        assert store.supporters(fact("b", 1)) == set()

    def test_surviving_derivations_no_longer_through_a_supporter(self):
        store = DerivationStore()
        record(store, fact("d", 1), Derivation(0, [fact("a", 1), fact("b", 1)]))
        record(store, fact("d", 1), Derivation(1, [fact("c", 1)]))
        assert store.supporters(fact("b", 1)) == {fact("d", 1)}
        assert store.remove_support(fact("a", 1)) == []
        assert store.has_fact(fact("d", 1))
        assert store.supporters(fact("b", 1)) == set()
        assert store.supporters(fact("c", 1)) == {fact("d", 1)}


class TestProofTrees:
    def test_base_fact_is_leaf(self):
        store = DerivationStore()
        tree = build_proof_tree(store, fact("e", 1))
        assert tree is not None and tree.is_leaf

    def test_two_level_tree(self):
        store = DerivationStore()
        record(store, fact("p", 1), Derivation(0, [fact("e", 1)]))
        record(store, fact("q", 1), Derivation(1, [fact("p", 1)]))
        tree = build_proof_tree(store, fact("q", 1))
        assert tree is not None
        assert [n for n in tree.facts()] == [fact("q", 1), fact("p", 1), fact("e", 1)]

    def test_cyclic_derivations_have_no_proof(self):
        # p <- q and q <- p: non-empty derivation sets but no valid proof
        # tree (Section IV-C's counterexample for general recursion).
        store = DerivationStore()
        record(store, fact("p", 1), Derivation(0, [fact("q", 1)]))
        record(store, fact("q", 1), Derivation(1, [fact("p", 1)]))
        assert build_proof_tree(store, fact("p", 1)) is None

    def test_cycle_with_escape(self):
        store = DerivationStore()
        record(store, fact("p", 1), Derivation(0, [fact("q", 1)]))
        record(store, fact("q", 1), Derivation(1, [fact("p", 1)]))
        record(store, fact("q", 1), Derivation(2, [fact("e", 1)]))
        tree = build_proof_tree(store, fact("p", 1))
        assert tree is not None


class TestLocalNonRecursion:
    def test_acyclic(self):
        store = DerivationStore()
        record(store, fact("p", 1), Derivation(0, [fact("e", 1)]))
        record(store, fact("q", 1), Derivation(1, [fact("p", 1)]))
        assert is_locally_nonrecursive(store)

    def test_cyclic(self):
        store = DerivationStore()
        record(store, fact("p", 1), Derivation(0, [fact("q", 1)]))
        record(store, fact("q", 1), Derivation(1, [fact("p", 1)]))
        assert not is_locally_nonrecursive(store)

    def test_empty(self):
        assert is_locally_nonrecursive(DerivationStore())
