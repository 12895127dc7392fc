"""Centralized bottom-up evaluation.

This module implements the reference semantics that the distributed
engine must agree with: naive and semi-naive fixpoints, stratified
negation, aggregates, and the stage-by-stage evaluation of
XY-stratified programs (Section IV-C).  The bottom-up approach is used
throughout because it is "amenable to incremental and asynchronous
distributed evaluation" (Section III).
"""

from __future__ import annotations

import itertools
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)


from ..obs import instrument as _inst
from ..obs import state as _obs
from ..obs.spans import span as _span
from .aggregates import Aggregate
from .ast import Atom, BuiltinLiteral, Program, RelLiteral, Rule
from .builtins import (
    BuiltinRegistry,
    DEFAULT_REGISTRY,
    eval_builtin,
    eval_term,
    normalize_partial,
    value_to_term,
)
from .columnar import GLOBAL_INTERNER as _INTERNER
from .derivations import (
    Derivation,
    DerivationStore,
    FactKey,
    FiringBatch,
    _gc_paused,
    fact_ref,
    fact_refs,
)
from .errors import EvaluationError, ProgramError
from .plan import (
    GLOBAL_PLAN_CACHE,
    _MIN_BATCH,
    _eval_term,
    order_body,
    rule_label,
    seed_mode,
)
from .vector import execute_batch
from .safety import check_program_safety
from .stratify import classify
from .terms import Constant, Substitution, Term, to_term
from .unify import match_sequences

ArgsTuple = Tuple[Term, ...]


class Relation:
    """A set of ground argument tuples, stored columnar.

    Storage is a row arena: every tuple added gets a dense row number,
    its terms are interned through :data:`repro.core.columnar.GLOBAL_INTERNER`
    and the resulting ids appended to per-position id columns.  Deletion
    tombstones the row.  Membership lives in the ``_row_of`` dict keyed
    by a row's id tuple: id equality is term equality, so the tuple-level
    API below is exact, and it maps terms to ids at its boundary
    (:meth:`Interner.get <repro.core.columnar.Interner.get>`; a term never
    interned matches no row).  The evaluator adds a batch by its head id
    rows (:meth:`add_ids`) and builds a term tuple only for a new row.
    The id columns feed the numpy batch kernels in
    :mod:`repro.core.vector` through version-keyed snapshot caches
    (:meth:`np_column` / :meth:`sorted_probe`) and, for a delta, by row
    number (:meth:`ids_at`).

    The tuple-level view keeps the pre-columnar contract unchanged:
    iteration in insertion order, a stored tuple in its first-added
    spelling (``1 == 1.0``), lazy per-position hash indexes (id-keyed
    buckets of row numbers) built the first time a position is probed
    with a bound pattern argument, and *selectivity-aware* probes — when
    a pattern has several ground positions and more than one of them
    already has an index, the smallest bucket wins (an empty bucket
    short-circuits to no candidates at all)."""

    def __init__(self, name: str):
        self.name = name
        #: id tuple -> row number (live rows only; iteration order is
        #: insertion order, which callers treat as unordered).
        self._row_of: Dict[Tuple[int, ...], int] = {}
        #: row number -> term tuple (including tombstoned rows; the
        #: first-added instance is the canonical row value).
        self._terms_rows: List[ArgsTuple] = []
        #: per-position id columns (including tombstoned rows); None
        #: once rows of differing arity make the relation ragged.
        self._cols: Optional[List[List[int]]] = None
        self._arity: Optional[int] = None
        self._dead: Set[int] = set()
        #: position -> (id -> set of row numbers), built lazily.
        self._indexes: Dict[int, Dict[int, Set[int]]] = {}
        #: bumped on every mutation; keys the numpy snapshot caches.
        self._version = 0
        self._snapshots: Dict[object, Tuple[int, object]] = {}
        #: row number -> fact ref (see repro.core.derivations), grown
        #: lazily; every derivation recorded through a row shares it.
        self._refs: List[tuple] = []
        #: Number of index probes — a cheap work metric for the
        #: join-ordering experiments.
        self.probes = 0
        #: Number of full-relation scans (patterns with no ground
        #: position; counted separately from index probes).
        self.scans = 0

    def __len__(self) -> int:
        return len(self._row_of)

    def __iter__(self) -> Iterator[ArgsTuple]:
        return map(self._terms_rows.__getitem__, self._row_of.values())

    def __contains__(self, args: ArgsTuple) -> bool:
        return tuple(map(_INTERNER.get, args)) in self._row_of

    def row(self, args: ArgsTuple) -> Optional[int]:
        """The row number of the live tuple equal to ``args``, or None."""
        return self._row_of.get(tuple(map(_INTERNER.get, args)))

    def stored(self, args: ArgsTuple) -> Optional[ArgsTuple]:
        """The stored tuple equal to ``args`` — in its own spelling,
        which may differ (``1 == 1.0``) — or None."""
        row = self._row_of.get(tuple(map(_INTERNER.get, args)))
        return None if row is None else self._terms_rows[row]

    def add(self, args: ArgsTuple) -> bool:
        """Insert; returns True when the tuple is new."""
        return self.add_row(args)[0]

    def add_row(self, args: ArgsTuple) -> Tuple[bool, int]:
        """Insert; returns ``(is_new, canonical row number)`` so hot
        loops can reach the stored row without a second lookup."""
        ids = tuple(map(_INTERNER.intern, args))
        row = self._row_of.get(ids)
        if row is not None:
            return False, row
        return True, self._append(ids, args)

    def add_ids(self, keys: Iterable[Tuple[int, ...]]) -> List[int]:
        """Insert the rows whose argument ids are ``keys``, each new one
        spelled with the interner's canonical terms; returns every key's
        row number.  Membership is decided key by key, so a key repeated
        in ``keys`` is inserted once.  The rows that were new are those
        numbered from the relation's old ``len(terms_rows)`` on."""
        get, rows, fresh = self._row_of.get, [], {}
        end = len(self._terms_rows)
        for key in keys:
            row = get(key)
            if row is None:
                row = fresh.setdefault(key, end + len(fresh))
            rows.append(row)
        if not fresh:
            return rows
        term = _INTERNER.terms.__getitem__
        cols, arity = self._cols, self._arity
        if cols is not None and not self._indexes and all(
                len(key) == arity for key in fresh):
            # The common case, a column at a time; an index to extend,
            # a first row or a ragged key go row by row below.
            self._row_of.update(fresh)
            self._terms_rows += [tuple(map(term, key)) for key in fresh]
            for col, ids in zip(cols, zip(*fresh)):
                col += ids
            self._version += 1
        else:
            for key in fresh:
                self._append(key, tuple(map(term, key)))
        return rows

    def _append(self, ids: Tuple[int, ...], args: ArgsTuple) -> int:
        row = len(self._terms_rows)
        if row == 0 and self._arity is None:
            self._arity = len(ids)
            self._cols = [[] for _ in ids]
        if self._cols is not None:
            if len(ids) == self._arity:
                for col, tid in zip(self._cols, ids):
                    col.append(tid)
            else:
                # Mixed arities: drop the columnar mirror; the batch
                # kernels fall back to the tuple executor for this
                # relation.
                self._cols = None
        self._row_of[ids] = row
        self._terms_rows.append(args)
        for pos, index in self._indexes.items():
            if pos < len(ids):
                index.setdefault(ids[pos], set()).add(row)
        self._version += 1
        return row

    def discard(self, args: ArgsTuple) -> bool:
        """Remove; returns True when the tuple was present."""
        ids = tuple(map(_INTERNER.get, args))
        row = self._row_of.pop(ids, None)
        if row is None:
            return False
        self._dead.add(row)
        for pos, index in self._indexes.items():
            if pos < len(ids):
                bucket = index.get(ids[pos])
                if bucket is not None:
                    bucket.discard(row)
                    if not bucket:
                        del index[ids[pos]]
        self._version += 1
        return True

    def _index_for(self, pos: int) -> Dict[int, Set[int]]:
        index = self._indexes.get(pos)
        if index is None:
            index = {}
            for ids, row in self._row_of.items():
                if pos < len(ids):
                    index.setdefault(ids[pos], set()).add(row)
            self._indexes[pos] = index
        return index

    def candidates(self, pattern: Sequence[Term], subst: Substitution) -> Iterable[ArgsTuple]:
        """Tuples that could match ``pattern`` under ``subst`` — probes
        the smallest index bucket among the ground pattern positions
        (falling back to a full scan when none is ground)."""
        self.probes += 1
        bound: List[Tuple[int, Term]] = []
        for pos, arg in enumerate(pattern):
            term = arg.substitute(subst)
            if term.is_ground():
                bound.append((pos, term))
        if not bound:
            return self
        return list(map(self._terms_rows.__getitem__, self._select_bucket(bound)))

    def lookup(self, bound: Sequence[Tuple[int, Term]]) -> Iterable[ArgsTuple]:
        """Candidates for a probe with known ground positions
        ``[(position, ground term), ...]`` (must be non-empty).  Counts
        one index probe and picks the smallest bucket across built
        indexes."""
        self.probes += 1
        return list(map(self._terms_rows.__getitem__, self._select_bucket(bound)))

    def lookup_rows(self, bound: Sequence[Tuple[int, Term]]) -> Iterable[int]:
        """:meth:`lookup`'s candidates as row numbers."""
        self.probes += 1
        return list(self._select_bucket(bound))

    def scan(self) -> Tuple[ArgsTuple, ...]:
        """A snapshot of the full relation (safe to iterate while the
        relation grows).  Counts a scan, not an index probe."""
        self.scans += 1
        return tuple(self)

    def _select_bucket(self, bound: Sequence[Tuple[int, Term]]) -> Iterable[int]:
        get_id = _INTERNER.get
        best = None
        for pos, term in bound:
            index = self._indexes.get(pos)
            if index is None:
                continue
            tid = get_id(term)
            bucket = index.get(tid) if tid is not None else None
            if bucket is None:
                # An index exists and has no entry for this value: the
                # relation cannot match, whatever the other positions say.
                return ()
            if best is None or len(bucket) < len(best):
                best = bucket
        if best is not None:
            return best
        pos, term = bound[0]
        tid = get_id(term)
        return self._index_for(pos).get(tid, ()) if tid is not None else ()

    # -- columnar view (consumed by repro.core.vector) -------------------

    @property
    def arity(self) -> Optional[int]:
        """Uniform row arity, or None while empty."""
        return self._arity

    @property
    def ragged(self) -> bool:
        """True once rows of differing arity broke the columnar mirror."""
        return self._arity is not None and self._cols is None

    @property
    def terms_rows(self) -> List[ArgsTuple]:
        """Row number -> canonical term tuple (tombstones included)."""
        return self._terms_rows

    def _snapshot(self, key, build):
        cached = self._snapshots.get(key)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        value = build()
        self._snapshots[key] = (self._version, value)
        return value

    def refs(self) -> List[tuple]:
        """Row-aligned fact refs (tombstones included), built from the id
        columns for the rows added since the last call.  Rows are
        append-only, so earlier entries stay valid."""
        refs, start = self._refs, len(self._refs)
        end = len(self._terms_rows)
        if start < end and self._cols is None:  # ragged: no id columns
            refs += [fact_ref((self.name, args)) for args in self._terms_rows[start:]]
        elif start < end:
            refs += fact_refs(self.name, [col[start:] for col in self._cols],
                              end - start)
        return refs

    def ids_at(self, pos: int, rows: Sequence[int]):
        """The ids of column ``pos`` at row numbers ``rows``, as an int64
        array (the relation must not be ragged)."""
        import numpy as np

        return np.fromiter(map(self._cols[pos].__getitem__, rows),
                           dtype=np.int64, count=len(rows))

    def id_tuples(self) -> Iterable[Tuple[int, ...]]:
        """Every live row's argument ids, in insertion order."""
        return self._row_of.keys()

    def id_columns(self) -> Optional[List[List[int]]]:
        """The per-position id columns when they hold exactly the live
        rows — no tombstone, one arity of at least 1 — else None."""
        return None if self._dead or not self._cols else self._cols

    def np_column(self, pos: int):
        """Id column ``pos`` as an int64 array (tombstones included)."""
        import numpy as np

        return self._snapshot(
            ("col", pos),
            lambda: np.array(self._cols[pos], dtype=np.int64),
        )

    def live_rows(self):
        """Live row numbers as an int64 array."""
        import numpy as np

        def build():
            if not self._dead:
                return np.arange(len(self._terms_rows), dtype=np.int64)
            return np.fromiter(
                self._row_of.values(), dtype=np.int64, count=len(self._row_of)
            )

        return self._snapshot("live", build)

    def sorted_probe(self, pos: int):
        """``(sorted ids, row numbers in that order)`` over live rows —
        the probe side of the vectorized searchsorted join."""
        import numpy as np

        def build():
            live = self.live_rows()
            vals = self.np_column(pos)[live]
            order = np.argsort(vals, kind="stable")
            return vals[order], live[order]

        return self._snapshot(("sorted", pos), build)


class Database:
    """Predicate name → :class:`Relation`, plus a derivation store for
    the tuples the evaluator derives."""

    def __init__(self, registry: BuiltinRegistry = DEFAULT_REGISTRY):
        self.registry = registry
        self._relations: Dict[str, Relation] = {}
        self.derivations = DerivationStore(self._relations)

    def relation(self, predicate: str) -> Relation:
        rel = self._relations.get(predicate)
        if rel is None:
            rel = Relation(predicate)
            self._relations[predicate] = rel
        return rel

    def assert_fact(self, predicate: str, args: Iterable) -> bool:
        """Insert a base fact; Python values are coerced to terms."""
        terms = tuple(to_term(a) for a in args)
        for t in terms:
            if not t.is_ground():
                raise EvaluationError(f"fact argument {t!r} is not ground")
        return self.relation(predicate).add(terms)

    def assert_atom(self, atom: Atom) -> bool:
        if not atom.is_ground():
            raise EvaluationError(f"fact {atom!r} is not ground")
        return self.relation(atom.predicate).add(atom.args)

    def retract_fact(self, predicate: str, args: Iterable) -> bool:
        terms = tuple(to_term(a) for a in args)
        return self.relation(predicate).discard(terms)

    def contains(self, predicate: str, args: Iterable) -> bool:
        terms = tuple(to_term(a) for a in args)
        return terms in self.relation(predicate)

    def rows(self, predicate: str) -> Set[Tuple]:
        """Relation contents as Python values (for assertions/reports).

        Cons-lists come back as (hashable) tuples; uninterpreted terms
        come back as Terms.  Values are read off the rows' ids, each
        distinct id evaluated once, so a number reads in the spelling
        the interner first met (``1`` and ``1.0`` are one id and equal
        values).  A relation with no tombstone and one arity is read a
        column at a time (:meth:`Relation.id_columns`); any other row
        by row.
        """
        rel = self.relation(predicate)
        cols = rel.id_columns()
        ids = rel.id_tuples() if cols is None else cols
        terms, registry = _INTERNER.terms, self.registry
        value = {
            tid: _freeze_value(eval_term(terms[tid], registry))
            for tid in set(itertools.chain.from_iterable(ids))
        }.__getitem__
        if cols is None:
            return {tuple(map(value, key)) for key in ids}
        return set(zip(*[map(value, col) for col in cols]))

    def predicates(self) -> List[str]:
        return sorted(self._relations)

    def count(self, predicate: str) -> int:
        return len(self.relation(predicate))

    def copy(self) -> "Database":
        clone = Database(self.registry)
        for name, rel in self._relations.items():
            target = clone.relation(name)
            for args in rel:
                target.add(args)
        return clone


def _freeze_value(value):
    """Recursively convert lists to tuples so row values are hashable."""
    if isinstance(value, list):
        return tuple(_freeze_value(v) for v in value)
    return value


def _total_probes(db: Database) -> int:
    return sum(rel.probes for rel in db._relations.values())


def _total_scans(db: Database) -> int:
    return sum(rel.scans for rel in db._relations.values())


# ---------------------------------------------------------------------------
# Rule enumeration
# ---------------------------------------------------------------------------


def enumerate_rule_recursive(
    rule: Rule,
    db: Database,
    registry: BuiltinRegistry,
    delta_pred: Optional[str] = None,
    delta_tuples: Optional[Iterable[ArgsTuple]] = None,
    delta_occurrence: Optional[int] = None,
) -> Iterator[Tuple[Substitution, List[FactKey]]]:
    """The seed recursive enumerator: re-derives the body ordering per
    call and probes through :meth:`Relation.candidates`.  Yields each
    satisfying substitution with the positive facts used (the
    derivation); the ``delta_occurrence``-th positive occurrence of
    ``delta_pred`` ranges over ``delta_tuples`` instead of the stored
    relation.  Kept as the reference implementation for differential
    tests and benchmark baselines (see
    :func:`repro.core.plan.seed_engine`)."""
    ordered = order_body(rule)
    occurrence_counter = itertools.count()
    occurrence_of: Dict[int, int] = {}
    for i, lit in enumerate(ordered):
        if isinstance(lit, RelLiteral) and not lit.negated and lit.predicate == delta_pred:
            occurrence_of[i] = next(occurrence_counter)

    def recurse(
        idx: int, subst: Substitution, used: List[FactKey]
    ) -> Iterator[Tuple[Substitution, List[FactKey]]]:
        if idx == len(ordered):
            yield subst, list(used)
            return
        lit = ordered[idx]
        if isinstance(lit, BuiltinLiteral):
            for s2 in eval_builtin(lit, subst, registry):
                yield from recurse(idx + 1, s2, used)
            return
        assert isinstance(lit, RelLiteral)
        rel = db.relation(lit.predicate)
        pattern = tuple(
            normalize_partial(arg.substitute(subst), registry)
            for arg in lit.atom.args
        )
        empty = Substitution()
        if lit.negated:
            exists = any(
                match_sequences(pattern, row, empty) is not None
                for row in rel.candidates(pattern, empty)
            )
            if not exists:
                yield from recurse(idx + 1, subst, used)
            return
        if (
            delta_pred is not None
            and lit.predicate == delta_pred
            and occurrence_of.get(idx) == delta_occurrence
        ):
            rows: Iterable[ArgsTuple] = delta_tuples or ()
        else:
            rows = rel.candidates(pattern, empty)
        for row in rows:
            bindings = match_sequences(pattern, row, empty)
            if bindings is None:
                continue
            s2 = Substitution(subst)
            s2.update(bindings)
            used.append((lit.predicate, row))
            yield from recurse(idx + 1, s2, used)
            used.pop()

    yield from recurse(0, Substitution(), [])


def ground_head(rule: Rule, subst: Substitution, registry: BuiltinRegistry) -> ArgsTuple:
    """Instantiate and normalize the arguments of the atom ``rule``
    derives — its head, or an aggregate rule's valuation — evaluating
    any arithmetic such as ``d + 1``."""
    out = []
    for arg in (Aggregate(rule).atom if rule.aggregates else rule.head).args:
        bound = arg.substitute(subst)
        if not bound.is_ground():
            raise EvaluationError(
                f"head of {rule!r} not ground under {dict(subst)!r}"
            )
        out.append(value_to_term(eval_term(bound, registry)))
    return tuple(out)


def fire_rule(
    rule: Rule,
    db: Database,
    registry: BuiltinRegistry,
    delta_pred: Optional[str] = None,
    delta_rows: Optional[Sequence[int]] = None,
    delta_occurrence: Optional[int] = None,
) -> FiringBatch:
    """Every body match of ``rule``, as one
    :class:`~repro.core.derivations.FiringBatch` complete before any
    head is stored.

    The ``delta_occurrence``-th positive occurrence of ``delta_pred``
    ranges over a delta instead of the stored relation: row numbers of
    that relation (``delta_rows``) — the evaluator's semi-naive and XY
    deltas, a maintainer's one updated fact.

    Vectorizable rules run through the numpy batch executor
    (:mod:`repro.core.vector`); everything else — rules the analyzer
    rejected, calls the kernels bail out of at runtime, tiny deltas —
    takes the tuple-at-a-time path below, with identical results.
    Inside a :func:`repro.core.plan.seed_engine` block every firing goes
    to the oracle instead.
    """
    if not seed_mode():
        plan = GLOBAL_PLAN_CACHE.get(rule)
        program = plan.batch_program()
        if program is not None and (
                delta_rows is None or len(delta_rows) >= _MIN_BATCH):
            results = execute_batch(plan, program, db, registry,
                                    delta_pred, delta_rows, delta_occurrence)
            if results is not None:
                return results
    delta_tuples = None
    if delta_rows is not None:
        delta_tuples = list(map(db.relation(delta_pred).terms_rows.__getitem__,
                                delta_rows))
    delta = dict(delta_pred=delta_pred, delta_tuples=delta_tuples,
                 delta_occurrence=delta_occurrence)
    if seed_mode():
        rule_id = rule.rule_id if rule.rule_id is not None else -1
        return FiringBatch.of(rule_id, (
            (ground_head(rule, subst, registry), used)
            for subst, used in enumerate_rule_recursive(rule, db, registry, **delta)
        ))
    return _fire_rule_tuples(rule, db, registry, **delta)


def _fire_rule_tuples(
    rule: Rule,
    db: Database,
    registry: BuiltinRegistry,
    **delta_kwargs,
) -> FiringBatch:
    plan = GLOBAL_PLAN_CACHE.get(rule)
    head = plan.program()[1]
    regs: List[Optional[Term]] = [None] * len(plan.slots)

    def matches():
        for used in plan.execute(db, registry, regs, **delta_kwargs):
            if head is None:  # raised per match, as ground_head raises it
                raise EvaluationError(f"head of {rule!r} not ground")
            yield tuple([_eval_term(a, regs, registry) for a in head]), used

    return FiringBatch.of(plan.rule_id, matches())


def _refold(db: Database, aggregate: Aggregate, valuations: List[ArgsTuple]) -> List[int]:
    """The new ``valuations`` of ``aggregate`` are stored: move the rows
    of their groups (:meth:`Aggregate.moved`) and return the numbers of
    the rows that are new."""
    rel, store = db.relation(aggregate.head), db.derivations
    fold = Derivation(aggregate.rule_id, ())
    new = []
    for old, row in aggregate.moved(db.relation(aggregate.valuation), valuations):
        if row is not None:
            is_new, at = rel.add_row(row)
            store.add_batch([rel.refs()[at]], FiringBatch.of(aggregate.rule_id, [(row, ())]))
            if is_new:
                new.append(at)
        if old is not None and store.remove_derivation((aggregate.head, old), fold):
            rel.discard(old)
    return new


# ---------------------------------------------------------------------------
# Evaluators
# ---------------------------------------------------------------------------


#: IDB rows a semi-naive component may hold (None: unbounded) and
#: stages a staged component may take before evaluation gives up.
_MAX_FACTS: Optional[int] = None
_MAX_STAGES = 100_000


class BottomUpEvaluator:
    """The one bottom-up fixpoint driver, for stratified and
    XY-stratified programs; any other program raises
    :class:`ProgramError`.

    :meth:`evaluate` walks the strongly connected components of the
    predicate dependency graph once, in the topological order
    :func:`classify` gives them (``Analysis.components``).  A component
    is either positive —
    saturated by the semi-naive routine — or a recursive component with
    negation inside, evaluated stage by stage in ascending stage order
    (the sub-table topological order of Section IV-C).  Every rule call,
    whichever routine made it, is absorbed as one :class:`FiringBatch`
    in :meth:`_absorb`, which also files its derivations in
    ``db.derivations`` (recorded when the store is first read) so the
    incremental maintainer can run afterwards.

    Two guards turn a non-terminating program into an error: a
    semi-naive component may hold at most ``_MAX_FACTS`` IDB rows
    (function symbols make recursion potentially non-terminating,
    Section IV-C; None leaves it unbounded) and a staged one may take
    at most ``_MAX_STAGES`` stages.
    """

    def __init__(self, program: Program,
                 registry: Optional[BuiltinRegistry] = None):
        analysis = classify(program)
        if analysis.strata is None and analysis.xy is None:
            raise ProgramError(
                "program mixes recursion and negation beyond XY-stratification; "
                "only locally non-recursive execution may be possible "
                f"(classification: {analysis.program_class.value})"
            )
        check_program_safety(program)
        self.program = program
        self.registry = registry or DEFAULT_REGISTRY
        #: The XY witness: it assigns a stage position to exactly the
        #: predicates of the components that recurse through negation.
        self.xy = analysis.xy
        self.components = analysis.components
        self.label = "semi-naive" if self.xy is None else "xy"

    def evaluate(self, db: Database) -> Database:
        """Evaluate the program to fixpoint over ``db`` (mutated in place,
        also returned for chaining)."""
        with _gc_paused():
            if not _obs.enabled:
                self._walk(db)
                return db
            probes_before = _total_probes(db)
            scans_before = _total_scans(db)
            with _span("eval.fixpoint", evaluator=self.label,
                       rules=len(self.program.rules)) as sp:
                self._walk(db)
                probes = _total_probes(db) - probes_before
                scans = _total_scans(db) - scans_before
                _inst.join_probes.inc(probes)
                _inst.relation_scans.inc(scans)
                sp.set(join_probes=probes, relation_scans=scans)
        return db

    def _walk(self, db: Database) -> None:
        for fact in self.program.facts:
            db.assert_atom(fact)
        staged = self.xy.stage_position if self.xy is not None else {}
        for comp in self.components:
            rules = [r for r in self.program.rules if r.head.predicate in comp]
            if not rules:
                continue  # base predicates: nothing to derive
            with _span("eval.stratum", predicates=sorted(comp)):
                if rules[0].head.predicate in staged:
                    self._evaluate_component(db, rules)
                else:
                    self._evaluate_stratum(db, rules)

    def _absorb(self, db: Database, rule: Rule, firings: FiringBatch,
                deltas) -> int:
        """Turn ``rule``'s fired heads into rows and derivations; the
        numbers of the rows that are new also land in ``deltas[head
        predicate]``.  Returns how many were new.  An aggregate rule's
        heads are valuations: the rows it adds are those of the groups
        they moved."""
        aggregate = GLOBAL_PLAN_CACHE.get(rule).aggregate if rule.aggregates else None
        head_pred = rule.head.predicate if aggregate is None else aggregate.valuation
        rel = db.relation(head_pred)
        start = len(rel.terms_rows)
        if firings.head_ids is None:
            rows = [rel.add_row(head)[1] for head in firings.heads]
        else:
            rows = rel.add_ids(firings.head_ids)
        new = range(start, len(rel.terms_rows))
        db.derivations.file(rel, rows, firings)
        if aggregate is not None:
            head_pred = aggregate.head
            new = _refold(db, aggregate, [rel.terms_rows[row] for row in new])
        if new:
            deltas.setdefault(head_pred, []).extend(new)
        if _obs.enabled and len(firings.index):
            label = rule_label(rule)
            _inst.rule_firings.labels(rule=label).inc(len(firings.index))
            _inst.rule_derived.labels(rule=label).inc(len(new))
        return len(new)

    # -- positive SCCs: semi-naive ---------------------------------------

    def _evaluate_stratum(self, db: Database, rules: List[Rule]) -> None:
        registry = self.registry

        # Initial round: full naive evaluation of this component's rules.
        deltas: Dict[str, List[int]] = {}
        rounds = 1
        for rule in rules:
            self._absorb(db, rule, fire_rule(rule, db, registry), deltas)

        # The _MAX_FACTS guard accumulates additions incrementally rather
        # than re-summing every IDB relation each round.
        idb_total = None
        if _MAX_FACTS is not None:
            idb_total = sum(db.count(p) for p in self.program.idb_predicates())

        # Semi-naive rounds: every occurrence of a predicate that grew in
        # the previous round ranges over that growth (the delta).  Rules
        # whose plan never reads a delta predicate are skipped outright.
        occurrences = [GLOBAL_PLAN_CACHE.get(r).occurrences for r in rules]
        while deltas:
            if _obs.enabled:
                for pred, delta in deltas.items():
                    _inst.delta_size.labels(predicate=pred).observe(len(delta))
            if idb_total is not None and idb_total > _MAX_FACTS:
                raise EvaluationError(
                    f"fixpoint exceeded {_MAX_FACTS} facts "
                    "(non-terminating recursion through function "
                    "symbols?)"
                )
            new_deltas: Dict[str, List[int]] = {}
            rounds += 1
            round_added = 0
            for rule, occs in zip(rules, occurrences):
                # Each delta variant fires only after the previous one's
                # heads are absorbed.
                for pred, delta in deltas.items():
                    for occ in range(len(occs.get(pred, ()))):
                        firings = fire_rule(
                            rule, db, registry, delta_pred=pred,
                            delta_rows=delta, delta_occurrence=occ,
                        )
                        round_added += self._absorb(db, rule, firings, new_deltas)
            if idb_total is not None:
                idb_total += round_added
            deltas = new_deltas
        if _obs.enabled:
            _inst.fixpoint_iterations.labels(evaluator="semi-naive").observe(rounds)

    # -- recursion through negation: stage by stage ----------------------

    def _stage_value(self, pred: str, args: ArgsTuple) -> object:
        pos = self.xy.stage_position[pred]
        return eval_term(args[pos], self.registry)

    def _evaluate_component(self, db: Database, rules: List[Rule]) -> None:
        """Saturate one staged component, stage by stage, semi-naively.

        A rule with a frontier literal (:meth:`XYStratification.frontier`:
        a row at stage ``t`` yields heads at exactly ``t + k``) fires at
        stage ``s`` as a delta firing over the rows of stage ``s - k``
        only, read from the relation's own index on the stage column; its
        predicate growing at ``t`` (base facts count, at their own stage)
        schedules stage ``t + k``.  A rule with a constant head stage
        fires at that stage only.  Any other rule fires unrestricted at
        every stage, and is enumerated up front and after each stage that
        grew for the later stages it reaches.  ``head stage == stage`` is
        checked on every firing.

        One pass in priority order *is* the stage's fixpoint, with no
        confirming re-fire: negation sees complete lower stages, and
        ``_order_same_stage`` admits only acyclic same-stage dependencies,
        so nothing a rule read at this stage grows after it fired.
        """
        xy = self.xy
        rules = sorted(rules, key=lambda r: xy.priority.get(r.head.predicate, 0))
        frontiers = [self._frontier(rule) for rule in rules]
        fixed = [
            term.value if isinstance(term, Constant) else None
            for term in (xy.stage_term(rule.head) for rule in rules)
        ]
        #: stage -> {(rule index, source stage)}: the frontiers feeding it.
        pending: Dict[object, Set[Tuple[int, object]]] = {
            stage: set() for stage in fixed if stage is not None
        }

        def grew(pred: str, t: object) -> None:
            for i, frontier in enumerate(frontiers):
                if frontier is not None and frontier[0] == pred:
                    pending.setdefault(t + frontier[2], set()).add((i, t))

        def enumerate_unrestricted(stage: object) -> None:
            for i, rule in enumerate(rules):
                if frontiers[i] is None and fixed[i] is None:
                    self._stage_firings(rule, db, stage, pending)

        for pred in sorted({f[0] for f in frontiers if f is not None}):
            pos = xy.stage_position[pred]
            for t in {eval_term(row[pos], self.registry)
                      for row in db.relation(pred) if pos < len(row)}:
                grew(pred, t)
        enumerate_unrestricted(None)

        stages = 0
        while pending:
            stage = min(pending)  # ascending: whatever it schedules is later
            stages += 1
            if stages > _MAX_STAGES:
                raise EvaluationError(
                    f"XY evaluation exceeded {_MAX_STAGES} stages "
                    "(non-terminating program?)"
                )
            with _span("eval.stage", stage=stage) as sp:
                sources = pending[stage]
                fired: List[Tuple[str, int]] = []
                grown: Dict[str, List[int]] = {}
                for i, (rule, frontier) in enumerate(zip(rules, frontiers)):
                    delta = {}
                    if frontier is not None:
                        pred, occurrence, _k = frontier
                        rel, pos = db.relation(pred), xy.stage_position[pred]
                        rows = [
                            row for j, t in sources if j == i
                            for row in rel.lookup_rows([(pos, value_to_term(t))])
                        ]
                        if not rows:
                            continue
                        fired.append((pred, len(rows)))
                        delta = dict(delta_pred=pred, delta_rows=rows,
                                     delta_occurrence=occurrence)
                    elif fixed[i] is not None and fixed[i] != stage:
                        continue
                    firings = self._stage_firings(rule, db, stage, pending, **delta)
                    if self._absorb(db, rule, firings, grown):
                        grew(rule.head.predicate, stage)
                del pending[stage]
                if grown:
                    enumerate_unrestricted(stage)
                if sp is not None:
                    for pred, size in fired:
                        _inst.delta_size.labels(predicate=pred).observe(size)
                    sp.set(frontier_rows=sum(size for _p, size in fired),
                           added=sum(len(rows) for rows in grown.values()))
        if _obs.enabled:
            _inst.fixpoint_iterations.labels(evaluator="xy").observe(stages)

    def _frontier(self, rule: Rule) -> Optional[Tuple[str, int, int]]:
        """``rule``'s frontier literal as ``(predicate, delta occurrence,
        k)``, or None."""
        found = self.xy.frontier(rule)
        if found is None:
            return None
        lit, k = found
        plan = GLOBAL_PLAN_CACHE.get(rule)
        occurrences = [plan.body[i] for i in plan.occurrences[lit.predicate]]
        return lit.predicate, occurrences.index(lit), k

    def _stage_firings(self, rule, db, stage, pending, **delta) -> FiringBatch:
        """``rule``'s firings whose head lies in ``stage``; the later
        stages they reach (every stage, when ``stage`` is None) are
        scheduled in ``pending``."""
        pred = rule.head.predicate
        stage_of = self._stage_value
        if rule.aggregates:
            # The heads are valuations: their group carries the stage.
            pos = GLOBAL_PLAN_CACHE.get(rule).aggregate.group.index(
                self.xy.stage_position[pred])
            stage_of = lambda _pred, head: eval_term(head[pos], self.registry)

        def keep(head) -> bool:
            head_stage = stage_of(pred, head)
            if head_stage != stage and (stage is None or head_stage > stage):
                pending.setdefault(head_stage, set())
            return head_stage == stage

        return fire_rule(rule, db, self.registry, **delta).restrict(keep)


def evaluate(
    program: Program,
    db: Optional[Database] = None,
    registry: Optional[BuiltinRegistry] = None,
) -> Database:
    """Evaluate ``program`` with :class:`BottomUpEvaluator`.

    Locally-non-recursive-only programs are rejected here (use the
    incremental evaluator, which verifies local non-recursion at
    runtime).
    """
    registry = registry or (db.registry if db is not None else DEFAULT_REGISTRY)
    return BottomUpEvaluator(program, registry).evaluate(
        Database(registry) if db is None else db)
