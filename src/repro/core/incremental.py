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
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from .ast import Program, RelLiteral, Rule
from .builtins import BuiltinRegistry, DEFAULT_REGISTRY, normalize_partial
from .derivations import Derivation, FactKey, is_locally_nonrecursive
from .errors import EvaluationError, ProgramError
from .eval import ArgsTuple, Database, enumerate_rule, fire_rule, ground_head
from .safety import check_program_safety
from .terms import Substitution, Term, to_term
from .unify import match_sequences


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


class IncrementalEvaluator:
    """Tuple-at-a-time incremental evaluation with set-of-derivations.

    Facts are pushed with :meth:`insert` / :meth:`delete`; each update
    is propagated to fixpoint before the call returns ("isolated
    updates" — the distributed engine adds the timestamp machinery that
    serializes simultaneous updates, Theorem 3).

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
        for rule in program.rules:
            if rule.has_aggregates:
                raise ProgramError(
                    "incremental evaluation does not support aggregate rules"
                )
        self.program = program
        self.registry = registry or DEFAULT_REGISTRY
        self.db = db if db is not None else Database(self.registry)
        self.idb = program.idb_predicates()
        self.stats = MaintenanceStats()
        self._queue: Deque[Tuple[str, str, ArgsTuple]] = deque()
        self._positive_rules: Dict[str, List[Rule]] = {}
        self._negative_rules: Dict[str, List[Tuple[Rule, int]]] = {}
        for rule in program.rules:
            for i, lit in enumerate(rule.body):
                if not isinstance(lit, RelLiteral):
                    continue
                if lit.negated:
                    self._negative_rules.setdefault(lit.predicate, []).append(
                        (rule, i)
                    )
                else:
                    rules = self._positive_rules.setdefault(lit.predicate, [])
                    if rule not in rules:
                        rules.append(rule)
        for fact in program.facts:
            self.insert(fact.predicate, fact.args)

    # -- public API ------------------------------------------------------

    def insert(self, predicate: str, args: Iterable) -> None:
        """Insert a base (or derived, for testing) fact and propagate."""
        self._queue.append(("insert", predicate, _coerce(args)))
        self._drain()

    def delete(self, predicate: str, args: Iterable) -> None:
        """Delete a fact and propagate retractions."""
        self._queue.append(("delete", predicate, _coerce(args)))
        self._drain()

    def rows(self, predicate: str):
        return self.db.rows(predicate)

    def verify_locally_nonrecursive(self) -> bool:
        """Runtime check: no cycles in the tuple-level derivation graph."""
        return is_locally_nonrecursive(self.db.derivations)

    # -- propagation -----------------------------------------------------

    def _drain(self) -> None:
        while self._queue:
            kind, pred, args = self._queue.popleft()
            if kind == "insert":
                self._apply_insert(pred, args)
            else:
                self._apply_delete(pred, args)

    def _apply_insert(self, pred: str, args: ArgsTuple) -> None:
        rel = self.db.relation(pred)
        if not rel.add(args):
            return  # duplicates are not generations (Section III-B)
        self.stats.facts_inserted += 1
        self._propagate_positive_insert(pred, args)
        self._propagate_negative(pred, args, subtract=True)

    def _propagate_positive_insert(self, pred: str, args: ArgsTuple) -> None:
        for rule in self._positive_rules.get(pred, ()):
            n_occ = sum(
                1 for lit in rule.positive_literals() if lit.predicate == pred
            )
            for occ in range(n_occ):
                # Streamed: firings only queue follow-up work, they never
                # mutate the relations the executor is reading.
                for head, derivation in fire_rule(
                    rule,
                    self.db,
                    self.registry,
                    delta_pred=pred,
                    delta_tuples={args},
                    delta_occurrence=occ,
                ):
                    self.stats.rule_firings += 1
                    self._add_derived(rule.head.predicate, head, derivation)

    def _add_derived(self, pred: str, args: ArgsTuple, derivation: Derivation) -> None:
        fact: FactKey = (pred, args)
        is_new = self.db.derivations.add(fact, derivation)
        self.stats.derivations_added += 1
        if is_new and args not in self.db.relation(pred):
            self._queue.append(("insert", pred, args))

    def _apply_delete(self, pred: str, args: ArgsTuple) -> None:
        rel = self.db.relation(pred)
        if not rel.discard(args):
            return
        self.stats.facts_deleted += 1
        fact: FactKey = (pred, args)
        # 1. Derivations that used this fact positively die with it.
        for emptied_pred, emptied_args in self.db.derivations.remove_support(fact):
            self._queue.append(("delete", emptied_pred, emptied_args))
        self.db.derivations.discard_fact(fact)
        # 2. Rules where this predicate appears negated may regain
        #    derivations now that the blocker is gone.
        self._propagate_negative(pred, args, subtract=False)

    def _propagate_negative(self, pred: str, args: ArgsTuple, subtract: bool) -> None:
        """Handle an update to a stream appearing as a *negated* subgoal.

        ``subtract=True`` for insertions (new blocker kills matching
        derivations), ``subtract=False`` for deletions (matching
        derivations may come back, re-checked against the post-deletion
        state — including the updated relation itself).
        """
        for rule, lit_index in self._negative_rules.get(pred, ()):
            neg_lit = rule.body[lit_index]
            assert isinstance(neg_lit, RelLiteral) and neg_lit.negated
            seed = match_sequences(neg_lit.atom.args, args, Substitution())
            if seed is None:
                continue
            remaining = tuple(
                lit for i, lit in enumerate(rule.body) if i != lit_index
            )
            reduced = Rule(rule.head, remaining, (), rule.rule_id)
            if not subtract:
                # Keep only bindings for variables the reduced rule
                # shares with the negated subgoal: variables local to
                # the subgoal (e.g. wildcards) must stay free so the
                # re-check below sees every still-standing blocker, not
                # just the tuple that was deleted.
                shared = reduced.variables()
                seed = Substitution(
                    {v: t for v, t in seed.items() if v in shared}
                )
            for subst, used in enumerate_rule(
                reduced, self.db, self.registry, initial_subst=seed
            ):
                self.stats.rule_firings += 1
                if not subtract and self._blocked(neg_lit, subst):
                    continue
                head = ground_head(reduced, subst, self.registry)
                derivation = Derivation(
                    rule.rule_id if rule.rule_id is not None else -1, used
                )
                head_fact: FactKey = (rule.head.predicate, head)
                if subtract:
                    self.stats.derivations_subtracted += 1
                    if self.db.derivations.remove_derivation(head_fact, derivation):
                        self._queue.append(("delete", rule.head.predicate, head))
                else:
                    self._add_derived(rule.head.predicate, head, derivation)

    def _blocked(self, neg_lit: RelLiteral, subst: Substitution) -> bool:
        """True when some stored tuple still satisfies the negated
        subgoal under ``subst`` (evaluated post-update)."""
        rel = self.db.relation(neg_lit.predicate)
        pattern = tuple(
            normalize_partial(arg.substitute(subst), self.registry)
            for arg in neg_lit.atom.args
        )
        empty = Substitution()
        return any(
            match_sequences(pattern, row, empty) is not None
            for row in rel.candidates(pattern, empty)
        )


class CountingEvaluator:
    """Counting-based maintenance [27]: a multiplicity per derived fact.

    Restricted to *non-recursive* programs (counts are ill-defined under
    recursion).  The paper rejects this approach for the network setting
    because fault-tolerant replication duplicates result tuples
    non-deterministically; centrally it is exact and cheap.
    """

    def __init__(
        self,
        program: Program,
        registry: Optional[BuiltinRegistry] = None,
    ):
        from .stratify import is_recursive

        check_program_safety(program)
        if is_recursive(program):
            raise ProgramError("counting maintenance requires a non-recursive program")
        for rule in program.rules:
            if rule.has_aggregates:
                raise ProgramError("counting maintenance does not support aggregates")
        self.program = program
        self.registry = registry or DEFAULT_REGISTRY
        self.db = Database(self.registry)
        self.counts: Dict[FactKey, int] = {}
        self.stats = MaintenanceStats()
        self._queue: Deque[Tuple[str, str, ArgsTuple]] = deque()
        self._positive_rules: Dict[str, List[Rule]] = {}
        self._negative_rules: Dict[str, List[Tuple[Rule, int]]] = {}
        for rule in program.rules:
            for i, lit in enumerate(rule.body):
                if not isinstance(lit, RelLiteral):
                    continue
                if lit.negated:
                    self._negative_rules.setdefault(lit.predicate, []).append((rule, i))
                else:
                    rules = self._positive_rules.setdefault(lit.predicate, [])
                    if rule not in rules:
                        rules.append(rule)
        for fact in program.facts:
            self.insert(fact.predicate, fact.args)

    def insert(self, predicate: str, args: Iterable) -> None:
        self._queue.append(("insert", predicate, _coerce(args)))
        self._drain()

    def delete(self, predicate: str, args: Iterable) -> None:
        self._queue.append(("delete", predicate, _coerce(args)))
        self._drain()

    def rows(self, predicate: str):
        return self.db.rows(predicate)

    def _drain(self) -> None:
        while self._queue:
            kind, pred, args = self._queue.popleft()
            if kind == "insert":
                self._apply(pred, args, +1)
            else:
                self._apply(pred, args, -1)

    def _apply(self, pred: str, args: ArgsTuple, sign: int) -> None:
        rel = self.db.relation(pred)
        if sign > 0:
            if not rel.add(args):
                return
            self.stats.facts_inserted += 1
        else:
            if not rel.discard(args):
                return
            self.stats.facts_deleted += 1
        # Positive occurrences: count delta = number of new matches.
        for rule in self._positive_rules.get(pred, ()):
            n_occ = sum(1 for lit in rule.positive_literals() if lit.predicate == pred)
            for occ in range(n_occ):
                # Streamed: _bump only queues transitions, the relations
                # the executor reads stay fixed until the queue drains.
                for head, _deriv in fire_rule(
                    rule, self.db, self.registry,
                    delta_pred=pred, delta_tuples={args}, delta_occurrence=occ,
                ):
                    self.stats.rule_firings += 1
                    self._bump(rule.head.predicate, head, sign)
        # Negative occurrences: inserting a blocker decrements, deleting
        # it restores (evaluated against the post-update state).
        for rule, lit_index in self._negative_rules.get(pred, ()):
            neg_lit = rule.body[lit_index]
            seed = match_sequences(neg_lit.atom.args, args, Substitution())
            if seed is None:
                continue
            remaining = tuple(l for i, l in enumerate(rule.body) if i != lit_index)
            reduced = Rule(rule.head, remaining, (), rule.rule_id)
            for subst, _used in enumerate_rule(
                reduced, self.db, self.registry, initial_subst=seed
            ):
                self.stats.rule_firings += 1
                head = ground_head(reduced, subst, self.registry)
                self._bump(rule.head.predicate, head, -sign)

    def _bump(self, pred: str, args: ArgsTuple, delta: int) -> None:
        fact: FactKey = (pred, args)
        count = self.counts.get(fact, 0) + delta
        if count < 0:
            raise EvaluationError(f"negative count for {fact!r}")
        if count == 0:
            self.counts.pop(fact, None)
            # Transition to zero: the queued delete updates the relation
            # and propagates further.
            self._queue.append(("delete", pred, args))
        else:
            self.counts[fact] = count
            if count == delta:
                # Transition from zero: first derivation of this fact.
                self._queue.append(("insert", pred, args))

    def count_of(self, predicate: str, args: Iterable) -> int:
        return self.counts.get((predicate, _coerce(args)), 0)


class DRedEvaluator:
    """Delete-and-rederive (DRed) maintenance [27].

    Deletion over-deletes every fact with *any* derivation using the
    deleted tuple, then tries to re-derive the over-deleted facts from
    what remains.  ``stats.facts_rederived`` counts the re-derivation
    work — the communication overhead the paper avoids by keeping
    derivation sets instead.

    Built on top of the set-of-derivations store (used here only as a
    support index); supports stratified programs without aggregates.
    """

    def __init__(
        self,
        program: Program,
        registry: Optional[BuiltinRegistry] = None,
    ):
        self._inner = IncrementalEvaluator(program, registry)
        self.program = program
        self.registry = self._inner.registry

    @property
    def db(self) -> Database:
        return self._inner.db

    @property
    def stats(self) -> MaintenanceStats:
        return self._inner.stats

    def insert(self, predicate: str, args: Iterable) -> None:
        self._inner.insert(predicate, args)

    def rows(self, predicate: str):
        return self._inner.rows(predicate)

    def delete(self, predicate: str, args: Iterable) -> None:
        """Over-delete then re-derive."""
        args_t = _coerce(args)
        rel = self.db.relation(predicate)
        if not rel.discard(args_t):
            return
        self.stats.facts_deleted += 1
        # Phase 1: over-deletion — transitively delete everything with a
        # derivation through the deleted fact (ignoring alternatives).
        # Both phases walk in a stated order (supporters sorted, then
        # over-deletion order): the work counted depends on it.
        overdeleted: List[FactKey] = []
        frontier: Deque[FactKey] = deque([(predicate, args_t)])
        store = self.db.derivations
        seen: Set[FactKey] = {(predicate, args_t)}
        while frontier:
            fact = frontier.popleft()
            for dependent in sorted(store.supporters(fact), key=repr):
                if dependent in seen:
                    continue
                if any(d.uses(fact) for d in store.derivations_of(dependent)):
                    seen.add(dependent)
                    overdeleted.append(dependent)
                    frontier.append(dependent)
        for pred, fargs in overdeleted:
            self.db.relation(pred).discard(fargs)
            store.discard_fact((pred, fargs))
            self.stats.facts_overdeleted += 1
        store.discard_fact((predicate, args_t))
        # Phase 2: re-derivation — repeatedly try to re-derive
        # over-deleted facts from the surviving database.
        remaining = dict.fromkeys(overdeleted)
        changed = True
        while changed and remaining:
            changed = False
            for pred, fargs in list(remaining):
                for rule in self.program.rules_for(pred):
                    rederived = False
                    for head, derivation in fire_rule(rule, self.db, self.registry):
                        self.stats.rule_firings += 1
                        if head == fargs:
                            store.add((pred, fargs), derivation)
                            rederived = True
                    if rederived:
                        self.db.relation(pred).add(fargs)
                        self.stats.facts_rederived += 1
                        del remaining[(pred, fargs)]
                        changed = True
                        break
        # Facts that could not be re-derived stay deleted; their own
        # negative occurrences may resurrect other facts.
        for pred, fargs in remaining:
            self._inner._propagate_negative(pred, fargs, subtract=False)
            self._inner._drain()
        self._inner._propagate_negative(predicate, args_t, subtract=False)
        self._inner._drain()
