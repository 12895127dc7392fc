"""Incremental view maintenance under insertions *and* deletions.

Section IV-A weighs three techniques for maintaining a derived result
when operand streams see deletions:

* **set-of-derivations** (the paper's choice) — store each derived
  tuple's full set of derivations; deletion subtracts derivation sets
  and deletes a tuple when its set empties.  No extra communication, a
  tolerable space overhead;
* **counting** [Gupta-Mumick-Subrahmanian] — store a multiplicity per
  derived tuple; rejected by the paper because fault-tolerant schemes
  duplicate result tuples non-deterministically, corrupting counts;
* **rederivation (DRed)** — over-delete everything the deleted tuple
  supported, then re-derive what survives; rejected because the
  re-derivation phase costs extra communication.

All three are implemented here (centrally) so benchmark E9 can compare
their maintenance work; the distributed engine builds on the
set-of-derivations evaluator.

All three maintain head aggregates (:mod:`repro.core.aggregates`): an
aggregate rule derives valuation facts like any rule derives its head,
and when a valuation appears or disappears the rows of its group move
through the fold's own derivation (:meth:`_Maintainer._refold`).

All three match an update of fact ``f`` by one rule: the *negated*
occurrences of its predicate with ``f`` absent, the *positive* ones
with ``f`` present, each call's firings a complete
:class:`~repro.core.derivations.FiringBatch` before the update is
applied.  The set-of-derivations evaluator and DRed record through
:meth:`~repro.core.derivations.DerivationStore.add_batch`, the writer
central evaluation uses, so both stores equal
:func:`~repro.core.eval.evaluate`'s after any update sequence; counting
counts the batches' records, once per derivation and update however
many occurrence variants find it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from .aggregates import Aggregate
from .ast import Program, Rule
from .builtins import BuiltinRegistry, DEFAULT_REGISTRY
from .derivations import (
    Derivation,
    FactKey,
    FiringBatch,
    fact_ref,
    is_locally_nonrecursive,
)
from .errors import EvaluationError, ProgramError
from .eval import ArgsTuple, Database, fire_rule
from .plan import GLOBAL_PLAN_CACHE, CompiledPlan, _eval_term, seed_holds
from .safety import check_program_safety
from .stratify import is_recursive, stratify
from .terms import to_term


class MaintenanceStats:
    """Work counters for comparing maintenance strategies (bench E9)."""

    def __init__(self):
        self.rule_firings = 0
        self.facts_inserted = 0
        self.facts_deleted = 0
        self.derivations_added = 0
        self.derivations_subtracted = 0
        self.facts_overdeleted = 0
        self.facts_rederived = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(vars(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in vars(self).items())
        return f"MaintenanceStats({inner})"


def _coerce(args: Iterable) -> ArgsTuple:
    return tuple(to_term(a) for a in args)


class _Maintainer:
    """What the maintainers share: the update queue and the firings one
    update touches.

    An update of fact ``f`` is matched by one rule: *negated*
    occurrences of its predicate are matched with ``f`` absent,
    *positive* occurrences with ``f`` present.  An insert therefore
    collects the derivations ``f`` blocks before it stores ``f``, and
    fires its positive occurrences after; a delete the other way round.
    Every firing is complete before the update is applied, so what a
    subclass records or counts is what held just before or just after
    the update, never a mix.

    A rule's firings derive facts of ``_derives[rule id]``: its head
    predicate, or an aggregate rule's valuation predicate.  A subclass
    calls :meth:`_refold` once valuations changed visibility, and
    :meth:`_move` says what moving a row means to it.

    A fact of a derived predicate inserted as a base fact stays until it
    is deleted as one, as it would in :func:`~repro.core.eval.evaluate`
    over the base facts: a cascade that empties its derivation set
    leaves it in place.  Of a database handed in, the facts of derived
    predicates with no derivation are the base ones.
    """

    def __init__(self, program: Program, registry: Optional[BuiltinRegistry],
                 db: Optional[Database] = None):
        self.program = program
        self.registry = registry or DEFAULT_REGISTRY
        self.db = db if db is not None else Database(self.registry)
        self.stats = MaintenanceStats()
        self._queue: Deque[Tuple[int, str, ArgsTuple]] = deque()
        #: predicate -> (rule, number of positive occurrences) / (plan,
        #: index of a negated occurrence in its ``negative``).
        self._positive_rules: Dict[str, List[Tuple[Rule, int]]] = {}
        self._negative_rules: Dict[str, List[Tuple[CompiledPlan, int]]] = {}
        #: rule id -> the predicate its firings derive; valuation
        #: predicate -> its rule's fold.
        self._derives: Dict[int, str] = {}
        self._aggregates: Dict[str, Aggregate] = {}
        #: Facts of derived predicates inserted as base facts.
        self._base: Set[FactKey] = set()
        for rule in program.rules:
            plan = GLOBAL_PLAN_CACHE.get(rule)
            self._derives[rule.rule_id] = plan.head.predicate
            if plan.aggregate is not None:
                self._aggregates[plan.aggregate.valuation] = plan.aggregate
            for pred, occurrences in plan.occurrences.items():
                self._positive_rules.setdefault(pred, []).append((rule, len(occurrences)))
            for i, lit in enumerate(plan.negative):
                self._negative_rules.setdefault(lit.predicate, []).append((plan, i))
        #: The predicates a firing or a fold derives.
        self._derived = {*self._derives.values(),
                         *(aggregate.head for aggregate in self._aggregates.values())}
        if db is not None:
            store = self.db.derivations
            self._base.update(
                (pred, args) for pred in self._derived
                for args in self.db.relation(pred)
                if not store.has_fact((pred, args)))
        for fact in program.facts:
            self.insert(fact.predicate, fact.args)

    def insert(self, predicate: str, args: Iterable) -> None:
        """Insert a base fact and propagate."""
        args = _coerce(args)
        if predicate in self._derived:
            self._base.add((predicate, args))
        self._queue.append((+1, predicate, args))
        self._drain()

    def delete(self, predicate: str, args: Iterable) -> None:
        """Delete a base fact and propagate retractions; a fact some
        derivation still holds stays."""
        args = _coerce(args)
        self._base.discard((predicate, args))
        self._queue.append((-1, predicate, args))
        self._drain()

    def rows(self, predicate: str):
        return self.db.rows(predicate)

    def _drain(self) -> None:
        while self._queue:
            self._apply(*self._queue.popleft())

    def _apply(self, sign: int, pred: str, args: ArgsTuple) -> None:
        raise NotImplementedError

    def _refold(self, aggregate: Aggregate, flipped: Iterable[ArgsTuple]) -> None:
        """The valuations ``flipped`` of ``aggregate`` changed
        visibility: the row that replaces a group row they moved gains
        the fold's derivation, then the old row loses it
        (:meth:`_move`).  In that order a fact derived through both rows
        keeps a derivation throughout, and one the old row blocks stays
        blocked."""
        rel = self.db.relation(aggregate.valuation)
        for old, new in aggregate.moved(rel, flipped):
            if new is not None:
                self._move(aggregate, new, +1)
            if old is not None:
                self._move(aggregate, old, -1)

    def _move(self, aggregate: Aggregate, row: ArgsTuple, sign: int) -> None:
        raise NotImplementedError

    def _positive_firings(self, pred: str, args: ArgsTuple) -> List[Tuple[Rule, FiringBatch]]:
        """One batch per positive occurrence of ``pred`` with the row of
        ``args`` as its delta; ``pred(args)`` must be stored."""
        fired = []
        rows = [self.db.relation(pred).row(args)]
        for rule, occurrences in self._positive_rules.get(pred, ()):
            for occ in range(occurrences):
                batch = fire_rule(
                    rule, self.db, self.registry,
                    delta_pred=pred, delta_rows=rows, delta_occurrence=occ,
                )
                self.stats.rule_firings += len(batch.index)
                fired.append((rule, batch))
        return fired

    def _negated_firings(self, pred: str, args: ArgsTuple) -> List[Tuple[CompiledPlan, list]]:
        """The ``(head, body facts)`` matches of the derivations
        ``pred(args)`` blocks through a negated subgoal, per rule and
        occurrence: valid while the fact is absent, as it must be when
        this is called, and blocked once it is present.  Each runs the
        rule from the registers the fact seeds
        (:meth:`~repro.core.plan.CompiledPlan.seed`), so the rule's own
        negated subgoal leaves out a match some other stored tuple
        blocks too."""
        fired = []
        for plan, idx in self._negative_rules.get(pred, ()):
            seeded = plan.seed(idx, args, self.registry, True)
            if seeded is None:
                continue
            regs, mask, check = seeded
            head = plan.program(mask)[1]
            matches = []
            for used in plan.execute(self.db, self.registry, regs, mask):
                if check is None or seed_holds(check, regs, args, self.registry):
                    self.stats.rule_firings += 1
                    matches.append((
                        tuple([_eval_term(a, regs, self.registry) for a in head]),
                        tuple(used),
                    ))
            fired.append((plan, matches))
        return fired


class IncrementalEvaluator(_Maintainer):
    """Tuple-at-a-time incremental evaluation with set-of-derivations.

    Facts are pushed with :meth:`insert` / :meth:`delete`; each update
    is propagated to fixpoint before the call returns ("isolated
    updates" — the distributed engine adds the timestamp machinery that
    serializes simultaneous updates, Theorem 3).  Derivations are
    recorded through :meth:`DerivationStore.add_batch
    <repro.core.derivations.DerivationStore.add_batch>`, the writer
    central evaluation uses, so the store equals :func:`evaluate`'s
    after any update sequence of base facts.

    Supports any program whose execution is locally non-recursive
    (which includes all non-recursive and XY-stratified programs run
    over streams with strictly increasing stage values); call
    :meth:`verify_locally_nonrecursive` to check the runtime property.
    """

    def __init__(
        self,
        program: Program,
        registry: Optional[BuiltinRegistry] = None,
        db: Optional[Database] = None,
    ):
        check_program_safety(program)
        super().__init__(program, registry, db)

    def verify_locally_nonrecursive(self) -> bool:
        """Runtime check: no cycles in the tuple-level derivation graph."""
        return is_locally_nonrecursive(self.db.derivations)

    def _apply(self, sign: int, pred: str, args: ArgsTuple) -> None:
        rel = self.db.relation(pred)
        store = self.db.derivations
        if sign > 0:
            if args in rel:
                return  # duplicates are not generations (Section III-B)
            blocked = self._negated_firings(pred, args)
            rel.add(args)
            self.stats.facts_inserted += 1
            if pred in self._aggregates:
                self._refold(self._aggregates[pred], (args,))
            for rule, batch in self._positive_firings(pred, args):
                self._record(self._derives[rule.rule_id], batch)
            # A new blocker kills the derivations it blocks.
            for plan, matches in blocked:
                head_pred = self._derives[plan.rule.rule_id]
                for head, used in matches:
                    self.stats.derivations_subtracted += 1
                    if store.remove_derivation((head_pred, head),
                                               Derivation(plan.rule_id, used)):
                        self._queue.append((-1, head_pred, head))
            return
        fact: FactKey = (pred, args)
        if fact in self._base or store.has_fact(fact):
            # A base fact, or derived again since its deletion was
            # queued (a cascade can re-derive a fact before it reaches
            # the fact): it stays, as evaluate() would keep it.
            return
        if not rel.discard(args):
            return
        self.stats.facts_deleted += 1
        # Derivations that used this fact positively die with it.
        for emptied_pred, emptied_args in store.remove_support(fact):
            self._queue.append((-1, emptied_pred, emptied_args))
        store.discard_fact(fact)
        if pred in self._aggregates:
            self._refold(self._aggregates[pred], (args,))
        self._restore(pred, args)

    def _move(self, aggregate: Aggregate, row: ArgsTuple, sign: int) -> None:
        if sign > 0:
            self._record(aggregate.head, FiringBatch.of(aggregate.rule_id, [(row, ())]))
        elif self.db.derivations.remove_derivation(
            (aggregate.head, row), Derivation(aggregate.rule_id, ())
        ):
            self._queue.append((-1, aggregate.head, row))

    def _restore(self, pred: str, args: ArgsTuple) -> None:
        """``pred(args)`` is gone: record the derivations it blocked."""
        for plan, matches in self._negated_firings(pred, args):
            self._record(self._derives[plan.rule.rule_id], FiringBatch.of(plan.rule_id, matches))

    def _record(self, pred: str, batch: FiringBatch) -> None:
        refs = [fact_ref((pred, head)) for head in batch.heads]
        head_of: Dict[tuple, ArgsTuple] = {}
        for ref, head in zip(refs, batch.heads):
            head_of.setdefault(ref, head)
        self.stats.derivations_added += len(batch.index)
        rel = self.db.relation(pred)
        for ref in self.db.derivations.add_batch(refs, batch):
            if head_of[ref] not in rel:
                self._queue.append((+1, pred, head_of[ref]))


class CountingEvaluator(_Maintainer):
    """Counting-based maintenance [27]: a multiplicity per derived fact.

    Restricted to *non-recursive* programs (counts are ill-defined under
    recursion).  The paper rejects this approach for the network setting
    because fault-tolerant replication duplicates result tuples
    non-deterministically; centrally it is exact and cheap.  An update
    moves a count by one per derivation it creates or destroys, however
    many occurrence variants find that derivation: variants are
    deduplicated by the firings' records.  A valuation is visible while
    its count is above 0, and a group row counts the fold's one
    derivation.
    """

    def __init__(
        self,
        program: Program,
        registry: Optional[BuiltinRegistry] = None,
    ):
        check_program_safety(program)
        if is_recursive(program):
            raise ProgramError("counting maintenance requires a non-recursive program")
        self.counts: Dict[FactKey, int] = {}
        super().__init__(program, registry)

    def _apply(self, sign: int, pred: str, args: ArgsTuple) -> None:
        rel = self.db.relation(pred)
        if (args in rel) == (sign > 0):
            return
        if sign < 0 and ((pred, args) in self._base or self.counts.get((pred, args))):
            return  # a base fact, or one a derivation still holds
        if sign > 0:
            blocked = self._negated_firings(pred, args)
            rel.add(args)
            self.stats.facts_inserted += 1
            fired = self._positive_firings(pred, args)
        else:
            fired = self._positive_firings(pred, args)
            rel.discard(args)
            self.stats.facts_deleted += 1
            blocked = self._negated_firings(pred, args)
        if pred in self._aggregates:
            self._refold(self._aggregates[pred], (args,))
        seen: Set[tuple] = set()
        for rule, batch in fired:
            self._count(self._derives[rule.rule_id], batch, sign, seen)
        # Inserting a blocker decrements what it blocks, deleting it
        # restores.
        for plan, matches in blocked:
            self._count(self._derives[plan.rule.rule_id], FiringBatch.of(plan.rule_id, matches),
                        -sign, seen)

    def _move(self, aggregate: Aggregate, row: ArgsTuple, sign: int) -> None:
        self._bump(aggregate.head, row, sign)

    def _count(self, pred: str, batch: FiringBatch, delta: int, seen: Set[tuple]) -> None:
        for i, record in zip(batch.index, batch.records):
            if record not in seen:
                seen.add(record)
                self._bump(pred, batch.heads[i], delta)

    def _bump(self, pred: str, args: ArgsTuple, delta: int) -> None:
        fact: FactKey = (pred, args)
        count = self.counts.get(fact, 0) + delta
        if count < 0:
            raise EvaluationError(f"negative count for {fact!r}")
        if count == 0:
            self.counts.pop(fact, None)
            # Transition to zero: the queued delete updates the relation
            # and propagates further.
            self._queue.append((-1, pred, args))
        else:
            self.counts[fact] = count
            if count == delta:
                # Transition from zero: first derivation of this fact.
                self._queue.append((+1, pred, args))

    def count_of(self, predicate: str, args: Iterable) -> int:
        return self.counts.get((predicate, _coerce(args)), 0)


class DRedEvaluator(IncrementalEvaluator):
    """Delete-and-rederive (DRed) maintenance [27].

    Inserts (and the retractions a new blocker causes) are maintained as
    by :class:`IncrementalEvaluator`.  Deletion over-deletes every fact
    with *any* derivation using the deleted tuple, then re-derives the
    over-deleted facts from what remains.  ``stats.facts_rederived``
    counts the re-derivation work — the communication overhead the
    paper avoids by keeping derivation sets instead.  Supports
    stratified programs; a valuation is re-derived in its aggregate's
    stratum.
    """

    def __init__(
        self,
        program: Program,
        registry: Optional[BuiltinRegistry] = None,
    ):
        self._stratum = {
            pred: level for level, preds in enumerate(stratify(program))
            for pred in preds
        }
        super().__init__(program, registry)
        for valuation, aggregate in self._aggregates.items():
            self._stratum[valuation] = self._stratum[aggregate.head]

    def delete(self, predicate: str, args: Iterable) -> None:
        """Over-delete then re-derive."""
        deleted = (predicate, _coerce(args))
        self._base.discard(deleted)
        if not self.db.relation(predicate).discard(deleted[1]):
            return
        self.stats.facts_deleted += 1
        store = self.db.derivations
        # Phase 1: over-deletion — transitively delete everything with a
        # derivation through the deleted fact (ignoring alternatives).
        # Both phases walk in a stated order (supporters sorted, then
        # over-deletion order): the work counted depends on it.
        seen, gone = {deleted}, [deleted]
        for fact in gone:  # walked while it grows
            for dependent in sorted(store.supporters(fact), key=repr):
                if dependent not in seen:
                    seen.add(dependent)
                    gone.append(dependent)
        for pred, fargs in gone:
            self.db.relation(pred).discard(fargs)
            store.discard_fact((pred, fargs))
        overdeleted = gone[1:]
        self.stats.facts_overdeleted += len(overdeleted)
        # A base fact survives its over-deletion; re-derivation records
        # its derivations again.
        for pred, fargs in overdeleted:
            if (pred, fargs) in self._base:
                self.db.relation(pred).add(fargs)
        # Phase 2: re-derivation, a stratum at a time (what a negated
        # subgoal reads is final first).  Every rule for an over-deleted
        # fact fires against the surviving database, recording each
        # derivation it finds, until a pass re-derives nothing: that
        # pass saw the final database, so a re-derived fact holds
        # evaluate()'s derivations.  A deleted fact of a derived
        # predicate is re-derived too when a derivation still holds it.
        lost: Dict[int, Dict[str, Set[ArgsTuple]]] = {}
        for pred, fargs in gone if predicate in self._derived else overdeleted:
            lost.setdefault(self._stratum[pred], {}).setdefault(pred, set()).add(fargs)
        for level in sorted(lost):
            rederived = True
            while rederived:
                rederived = False
                for pred, heads in lost[level].items():
                    rel = self.db.relation(pred)
                    for rule in self.program.rules:
                        if self._derives[rule.rule_id] != pred:
                            continue
                        batch = fire_rule(rule, self.db, self.registry)
                        self.stats.rule_firings += len(batch.index)
                        batch = batch.restrict(heads.__contains__)
                        store.add_batch([fact_ref((pred, h)) for h in batch.heads], batch)
                        for head in batch.heads:
                            if head not in rel:
                                rel.add(head)
                                self.stats.facts_rederived += 1
                                rederived = True
        # Facts that could not be re-derived stay deleted: the group
        # rows of lost valuations move, and the facts' own negative
        # occurrences may resurrect other facts.
        for preds in lost.values():
            for pred, heads in preds.items():
                if pred in self._aggregates:
                    rel = self.db.relation(pred)
                    lost_valuations = sorted((h for h in heads if h not in rel), key=repr)
                    self._refold(self._aggregates[pred], lost_valuations)
        for pred, fargs in overdeleted + [deleted]:
            if fargs not in self.db.relation(pred):
                self._restore(pred, fargs)
                self._drain()
