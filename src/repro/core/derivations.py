"""Derivation bookkeeping — the *set-of-derivations* approach.

A **derivation** of a derived tuple records the rule used and the list
of tuples (one per non-negated relational subgoal) that joined to yield
it (Definition 2).  Keeping the full set of derivations with each
derived tuple lets deletions be processed by subtracting derivation
sets — no counting (fragile under the non-deterministic duplication a
fault-tolerant scheme produces) and no rederivation traffic.

A derived tuple lives exactly as long as its derivation set is
non-empty; correctness requires that every remaining derivation unfolds
to a valid proof tree, which holds for non-recursive, XY-stratified and
locally non-recursive programs (Section IV-C).

**The recording format.**  The store keeps no Python object per
derivation.  A fact is recorded as a *fact ref*, the flat tuple
``(pred, id_1, ..., id_n)`` of its predicate and the ids
:data:`repro.core.columnar.GLOBAL_INTERNER` gives its arguments; a
derivation as a *record*, the flat tuple ``(rule_id, ref_1, ..., ref_k)``.
Both hash and compare in C, so recording a derivation runs no Python
``__hash__``.  A ref is stable: id equality is term equality (``1`` and
``1.0`` share a ref, as they share a row) and ids are append-only for
the life of the process, so a fact keeps its ref when it is deleted and
re-added, and a fact that is not stored has one too
(:class:`~repro.core.incremental.IncrementalEvaluator` records a
derivation before it inserts the fact).

This module is the one reader and writer of that format.  Callers read
:data:`FactKey` and :class:`Derivation`; :class:`DerivationStore`
translates at its boundary, spelling a stored fact the way its relation
stores it.  A firing reaches the store one way: every executor (the
batch kernels, the tuple executor, the seed oracle) hands over a whole
rule call as one :class:`FiringBatch`.  The batch kernels hand over
their provenance as they have it — per positive subgoal, the relation
and the array of its matched row numbers — and the batch builds its
records from those arrays (through the per-row ref caches,
:func:`fact_refs`) only when they are first read; the other executors
build them as the firings are (:meth:`FiringBatch.of`).

The central fixpoint *files* a call (:meth:`DerivationStore.file`): it
keeps the call's head rows and its row arrays, and builds no record and
no set.  The store turns its filed calls into records, in filing order,
the first time it is read or written otherwise — so a fixpoint whose
store nothing reads never builds one, and a reader sees exactly what
recording each call as it fired would have made.
:meth:`DerivationStore.add_batch`, the store's other writer, records a
batch at once; the maintainers of :mod:`repro.core.incremental` record
through it.  Rows are never renumbered (a deleted row keeps its ids),
so a filed row names the same ref whenever it is read.
:class:`~repro.dist.localized.LocalizedEngine` keeps the same refs and
records, made by :func:`fact_ref`, in its tables, ledgers and messages;
:func:`spell_record` spells a record as plain values.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from itertools import chain, islice, repeat
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from .columnar import GLOBAL_INTERNER
from .stratify import components, cyclic
from .terms import Term

#: A fact is identified by its predicate and ground argument tuple.
FactKey = Tuple[str, Tuple[Term, ...]]

_set = object.__setattr__


def fact_refs(pred: str, columns: Sequence[Sequence[int]], n: int) -> List[tuple]:
    """The refs of ``n`` facts of ``pred`` whose argument ids are
    ``columns`` (one id sequence per argument position)."""
    return list(zip(repeat(pred, n), *columns))


def fact_ref(fact: FactKey) -> tuple:
    """``fact``'s ref, interning terms never seen before."""
    pred, args = fact
    return (pred, *map(GLOBAL_INTERNER.intern, args))


def spell_record(record: tuple) -> Tuple[int, Tuple[FactKey, ...]]:
    """``record`` as plain values, ``(rule_id, ((pred, args), ...))``,
    each fact spelled as the interner first met its terms — for tests
    and debugging: no engine spells a record to compare it."""
    terms = GLOBAL_INTERNER.terms
    return record[0], tuple(
        (ref[0], tuple(map(terms.__getitem__, islice(ref, 1, None))))
        for ref in islice(record, 1, None)
    )


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector for the span of a fixpoint or
    of filing a store's calls.

    Both allocate heavily and create no reference cycles: a fixpoint
    its relation rows (term tuples, id keys), filing one record per
    firing and one set per derived fact.  Everything is reclaimed by
    reference counting the moment it dies, while each young collection
    the allocations start traverses every object made since the last
    one and frees nothing.  Nested spans see the collector already off
    and leave it alone.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _find(fact: FactKey) -> tuple:
    """``fact``'s ref for a lookup, interning nothing: a term never
    interned reads as None, and a ref holding None matches no record."""
    pred, args = fact
    return (pred, *map(GLOBAL_INTERNER.get, args))


class Derivation:
    """One way a derived tuple was produced: rule id + supporting facts."""

    __slots__ = ("rule_id", "body_facts", "_hash")

    def __init__(self, rule_id: int, body_facts: Iterable[FactKey]):
        _set(self, "rule_id", rule_id)
        body = tuple(body_facts)
        _set(self, "body_facts", body)
        # Derivations the store hands out land in frozensets, so each is
        # hashed at least once; computing eagerly skips the exception
        # dance a lazy slot would cost on the first call.
        _set(self, "_hash", hash((rule_id, body)))

    def __setattr__(self, name, value):
        raise AttributeError("Derivation is immutable")

    def __reduce__(self):
        # The guard also blocks pickle's slot restore; rebuild through
        # the constructor (derivation sets ride result messages across
        # shard-worker boundaries).
        return (Derivation, (self.rule_id, self.body_facts))

    def uses(self, fact: FactKey) -> bool:
        return fact in self.body_facts

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Derivation)
            and self.rule_id == other.rule_id
            and self.body_facts == other.body_facts
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        facts = ", ".join(f"{p}{tuple(map(repr, a))}" for p, a in self.body_facts)
        return f"<rule {self.rule_id}: {facts}>"


def _body_records(rule_id: int, body: Sequence[tuple], n: int) -> List[tuple]:
    """The records of ``n`` firings of rule ``rule_id`` whose positive
    subgoals matched ``body``: one ``(relation, row array)`` per
    subgoal, one row per firing."""
    return list(zip(repeat(rule_id, n),
                    *[map(rel.refs().__getitem__, rows.tolist()) for rel, rows in body]))


class FiringBatch:
    """Every firing of one rule call, in id space: what every executor
    hands over, and what :meth:`DerivationStore.file` and
    :meth:`DerivationStore.add_batch` record.

    ``index`` (an int64 array) gives each firing's position in
    ``heads``, the head tuples.  Heads may repeat — a vector batch under
    ``_EMIT_DEDUP_MIN_ROWS`` rows skips its dedup, and :meth:`of` never
    dedups — so a firing's head is read through ``index``.  ``records``
    holds one record ``(rule_id, ref_1, ..., ref_k)`` per firing, in
    firing order.

    The batch kernels hand over ``head_ids``, each head's argument ids,
    instead of term tuples, and ``body``, one ``(relation, row array)``
    per positive subgoal, instead of records; ``heads`` and ``records``
    are then built from them on first read, each term the interner's
    canonical one.  ``head_ids`` and ``body`` are None when the executor
    built term tuples and records.
    """

    __slots__ = ("rule_id", "head_ids", "index", "body", "_heads", "_records")

    def __init__(self, rule_id: int, index: np.ndarray, *,
                 heads: Optional[List[tuple]] = None,
                 head_ids: Optional[List[tuple]] = None,
                 records: Optional[List[tuple]] = None,
                 body: Optional[List[tuple]] = None):
        self.rule_id = rule_id
        self.index = index
        self._heads = heads
        self.head_ids = head_ids
        self._records = records
        self.body = body

    @property
    def heads(self) -> List[tuple]:
        if self._heads is None:
            term = GLOBAL_INTERNER.terms.__getitem__
            self._heads = [tuple(map(term, key)) for key in self.head_ids]
        return self._heads

    @property
    def records(self) -> List[tuple]:
        if self._records is None:
            self._records = _body_records(self.rule_id, self.body, len(self.index))
        return self._records

    @classmethod
    def of(cls, rule_id: int,
           matches: Iterable[Tuple[tuple, Iterable[FactKey]]]) -> "FiringBatch":
        """The batch of ``(head, body facts)`` matches.  Each match is
        interned before the next is drawn, so a body list the producer
        reuses is safe."""
        heads: List[tuple] = []
        records: List[tuple] = []
        for head, body in matches:
            heads.append(head)
            records.append((rule_id, *map(fact_ref, body)))
        return cls(rule_id, np.arange(len(heads)), heads=heads, records=records)

    def restrict(self, keep: Callable[[tuple], bool]) -> "FiringBatch":
        """The firings whose head passes ``keep``, called once per entry
        of ``heads``."""
        heads = self.heads
        kept = [i for i, head in enumerate(heads) if keep(head)]
        if len(kept) == len(heads):
            return self
        position = np.full(len(heads), -1, dtype=np.int64)
        position[kept] = np.arange(len(kept))
        index = position[self.index]
        firings = np.flatnonzero(index >= 0)
        head_ids = self.head_ids
        batch = FiringBatch(
            self.rule_id, index[firings], heads=[heads[i] for i in kept],
            head_ids=None if head_ids is None else [head_ids[i] for i in kept])
        if self.body is None:
            batch._records = list(map(self.records.__getitem__, firings.tolist()))
        else:
            batch.body = [(rel, rows[firings]) for rel, rows in self.body]
        return batch


class DerivationStore:
    """Maps each derived fact to its set of derivations, with a reverse
    index from supporting facts to the facts they support (for efficient
    deletion cascades).

    ``relations`` — a :class:`~repro.core.eval.Database`'s, for its own
    store — maps a predicate to its relation; a fact handed out is
    spelled the way its relation stores it (``relation.stored(args)``),
    a fact no relation stores as the interner first met its terms.

    A call is filed (:meth:`file`) when the central fixpoint absorbs
    it, and recorded when the store is next read or written: every
    reader, :meth:`add_batch` and every removal first turns the filed
    calls into records, in filing order (:meth:`_file`).
    """

    def __init__(self, relations: Optional[Mapping[str, object]] = None):
        #: head ref -> set of records.
        self._records: Dict[tuple, Set[tuple]] = {}
        #: Calls filed and not yet recorded, in filing order: (rule id,
        #: head relation, head row per firing, records or None, body).
        self._filed: List[tuple] = []
        #: body ref -> head refs with a record through it, or None while
        #: unbuilt.  Only the deletion paths read it, so forward
        #: evaluation skips it entirely; it is built from ``_records`` on
        #: first deletion-path access and kept exact by every later
        #: ``add_batch`` and removal.
        self._supports: Optional[Dict[tuple, Set[tuple]]] = None
        self._relations = relations if relations is not None else {}

    # -- translation at the boundary -------------------------------------

    def _fact(self, ref: tuple) -> FactKey:
        pred = ref[0]
        args = tuple(map(GLOBAL_INTERNER.terms.__getitem__, islice(ref, 1, None)))
        rel = self._relations.get(pred)
        stored = rel.stored(args) if rel is not None else None
        return pred, (args if stored is None else stored)

    def _derivation(self, record: tuple, fact=None) -> Derivation:
        return Derivation(record[0], map(fact or self._fact, islice(record, 1, None)))

    @staticmethod
    def _find_record(derivation: Derivation) -> tuple:
        return (derivation.rule_id, *map(_find, derivation.body_facts))

    # -- the reverse index -----------------------------------------------

    def _support_index(self) -> Dict[tuple, Set[tuple]]:
        records_of = self._file()
        if self._supports is None:
            self._supports = {}
            for head, records in records_of.items():
                self._link(head, records)
        return self._supports

    def _link(self, head: tuple, records: Iterable[tuple]) -> None:
        supports = self._supports
        for record in records:
            for body in islice(record, 1, None):
                deps = supports.get(body)
                if deps is None:
                    supports[body] = {head}
                else:
                    deps.add(head)

    def _unlink(self, head: tuple, dropped: Iterable[tuple], kept: Set[tuple]) -> None:
        """``head`` lost the records ``dropped`` and keeps ``kept``: it
        leaves the index entry of every body ref no kept record uses."""
        supports = self._supports
        if supports is None:
            return
        still = {body for record in kept for body in islice(record, 1, None)}
        for record in dropped:
            for body in islice(record, 1, None):
                deps = supports.get(body)
                if deps is not None and body not in still:
                    deps.discard(head)
                    if not deps:
                        del supports[body]

    # -- recording -------------------------------------------------------

    def file(self, rel, rows: Sequence[int], batch: FiringBatch) -> None:
        """Record every firing of ``batch`` when the store is next read:
        ``rows`` are the row numbers of its ``heads`` in ``rel``.  Keeps
        one head row per firing and the batch's row arrays (its records
        when it has no ``body``); builds nothing else."""
        if len(batch.index):
            head_rows = np.asarray(rows, dtype=np.int64)[batch.index]
            records = None if batch.body is not None else batch.records
            self._filed.append((batch.rule_id, rel, head_rows, records, batch.body))

    def _file(self) -> Dict[tuple, Set[tuple]]:
        """Record the filed calls, in filing order, with the collector
        paused; returns ``_records``."""
        filed = self._filed
        if filed:
            self._filed = []
            with _gc_paused():
                for rule_id, rel, rows, records, body in filed:
                    if records is None:
                        records = _body_records(rule_id, body, len(rows))
                    self._add(map(rel.refs().__getitem__, rows.tolist()), records)
        return self._records

    def add_batch(self, head_refs: Sequence[tuple], batch: FiringBatch) -> List[tuple]:
        """Record every firing of ``batch``, ``head_refs`` the refs of its
        ``heads``, after the filed calls; returns the refs of the heads
        that had no derivation before, in firing order.  A built reverse
        index is kept exact."""
        self._file()
        return self._add(map(head_refs.__getitem__, batch.index.tolist()), batch.records)

    def _add(self, heads: Iterable[tuple], records: Iterable[tuple]) -> List[tuple]:
        """Record each ``record`` under the head ref beside it."""
        store, get, supports = self._records, self._records.get, self._supports
        new: List[tuple] = []
        for head, record in zip(heads, records):
            existing = get(head)
            if existing is None:
                store[head] = {record}
                new.append(head)
            else:
                existing.add(record)
            if supports is not None:
                self._link(head, (record,))
        return new

    # -- deletion --------------------------------------------------------

    def supporters(self, fact: FactKey) -> Set[FactKey]:
        """Facts with at least one derivation through ``fact``."""
        return set(map(self._fact, self._support_index().get(_find(fact), ())))

    def remove_derivation(self, fact: FactKey, derivation: Derivation) -> bool:
        """Subtract one derivation from ``fact``'s set (Section IV-B).

        Returns True when the set became empty (the fact must be
        deleted).  Subtracting an absent derivation is a no-op.
        """
        head, record = _find(fact), self._find_record(derivation)
        records = self._file().get(head)
        if records is None or record not in records:
            return False
        records.discard(record)
        self._unlink(head, (record,), records)
        if records:
            return False
        del self._records[head]
        return True

    def remove_support(self, removed: FactKey) -> List[FactKey]:
        """Delete every derivation that uses ``removed``; return the facts
        whose derivation sets became empty (they must now be deleted),
        in ref order."""
        supports = self._support_index()
        ref = _find(removed)
        emptied: List[FactKey] = []
        for head in sorted(supports.pop(ref, ())):
            records = self._records[head]
            dropped = {record for record in records if ref in record}
            kept = records - dropped
            self._unlink(head, dropped, kept)
            if kept:
                self._records[head] = kept
            else:
                del self._records[head]
                emptied.append(self._fact(head))
        return emptied

    def discard_fact(self, fact: FactKey) -> None:
        """Forget a fact entirely (used when the fact is deleted)."""
        head = _find(fact)
        records = self._file().pop(head, None)
        if records:
            self._unlink(head, records, set())

    # -- reading ---------------------------------------------------------

    def derivations_of(self, fact: FactKey) -> FrozenSet[Derivation]:
        records = self._file().get(_find(fact), ())
        return frozenset(map(self._derivation, records))

    def has_fact(self, fact: FactKey) -> bool:
        return _find(fact) in self._file()

    def facts(self) -> Iterator[FactKey]:
        return map(self._fact, self._file())

    def snapshot(self) -> Dict[FactKey, FrozenSet[Derivation]]:
        """Every recorded fact with its derivations, as plain values."""
        spelled: Dict[tuple, FactKey] = {}

        def fact(ref: tuple) -> FactKey:
            found = spelled.get(ref)
            if found is None:
                found = spelled[ref] = self._fact(ref)
            return found

        return {
            fact(head): frozenset(self._derivation(record, fact) for record in records)
            for head, records in self._file().items()
        }

    def __len__(self) -> int:
        return len(self._file())


class ProofNode:
    """A node of a proof tree: a fact plus the sub-proofs of the body
    facts of one of its derivations (base facts are leaves)."""

    def __init__(self, fact: FactKey, rule_id: Optional[int], children: List["ProofNode"]):
        self.fact = fact
        self.rule_id = rule_id
        self.children = children

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def facts(self) -> Iterator[FactKey]:
        yield self.fact
        for child in self.children:
            yield from child.facts()

    def __repr__(self) -> str:
        pred, args = self.fact
        head = f"{pred}{tuple(map(repr, args))}"
        if self.is_leaf:
            return head
        return f"{head} <- [{', '.join(repr(c) for c in self.children)}]"


def build_proof_tree(
    store: DerivationStore, fact: FactKey, _path: Optional[Set[FactKey]] = None
) -> Optional[ProofNode]:
    """Unfold derivations into a proof tree with base facts at the leaves.

    Returns ``None`` when no valid (acyclic) proof exists — the situation
    Section IV-C warns about for general recursive programs, where a
    non-empty derivation set does not imply a valid proof tree.
    """
    if _path is None:
        _path = set()
    if fact in _path:
        return None  # directed cycle: not a valid proof
    if not store.has_fact(fact):
        return ProofNode(fact, None, [])  # base fact
    _path = _path | {fact}
    for derivation in store.derivations_of(fact):
        children = []
        for body_fact in derivation.body_facts:
            child = build_proof_tree(store, body_fact, _path)
            if child is None:
                break
            children.append(child)
        else:
            return ProofNode(fact, derivation.rule_id, children)
    return None


def is_locally_nonrecursive(store: DerivationStore) -> bool:
    """Runtime check for local non-recursion: no directed cycles in the
    tuple-level derivation graph (Section IV-C, [6])."""
    graph = {head: dict.fromkeys(chain.from_iterable(islice(r, 1, None) for r in records))
             for head, records in store._file().items()}
    for body in [body for row in graph.values() for body in row]:
        graph.setdefault(body, {})  # facts no rule derives
    return not cyclic(graph, components(graph))
