"""Top-down (tabled) query evaluation.

The central server of Fig. 2 rewrites programs with magic sets so that
*bottom-up* evaluation only derives facts relevant to the query — the
classical theorem being that this matches *top-down* evaluation with
tabling.  This module provides that top-down side: SLD resolution with
memoization (OLDT-style tabling), which

* terminates on recursive Datalog where plain Prolog loops;
* answers goals with arbitrary binding patterns;
* serves as an independent oracle for the magic-sets transformation
  (tests assert `top_down(Q) == bottom_up(magic(Q))`).

Stratified negation is supported: a negated subgoal is evaluated as a
(ground) sub-query whose table must be completed first; programs where
negation cycles through recursion are rejected up front.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from .ast import Atom, BuiltinLiteral, Program, RelLiteral
from .builtins import BuiltinRegistry, DEFAULT_REGISTRY, eval_builtin, normalize_partial, eval_term, value_to_term
from .errors import EvaluationError, ProgramError
from .eval import ArgsTuple, Database, order_body
from .safety import check_program_safety
from .stratify import classify
from .terms import Substitution, Term, Variable
from .unify import match_sequences, unify_sequences

#: Rounds the outermost activation may take before it gives up.
_MAX_ITERATIONS = 10_000


class _Table:
    """Answers for one tabled subgoal (keyed by its canonical form)."""

    __slots__ = ("answers", "complete", "in_progress")

    def __init__(self):
        self.answers: Set[ArgsTuple] = set()
        self.complete = False
        self.in_progress = False


def _canonical(atom: Atom) -> Tuple[str, Tuple]:
    """Variant-canonical key: variables numbered by first occurrence."""
    mapping: Dict[Variable, int] = {}
    parts: List = []

    def walk(term: Term):
        if isinstance(term, Variable):
            if term not in mapping:
                mapping[term] = len(mapping)
            return ("v", mapping[term])
        from .terms import Constant, FunctionTerm

        if isinstance(term, Constant):
            return ("c", term.value)
        assert isinstance(term, FunctionTerm)
        return ("f", term.functor, tuple(walk(a) for a in term.args))

    for arg in atom.args:
        parts.append(walk(arg))
    return (atom.predicate, tuple(parts))


class TopDownEvaluator:
    """Tabled SLD resolution over a program + EDB database.

    ::

        evaluator = TopDownEvaluator(program, db)
        for answer in evaluator.query(parse_atom("anc(n0, Z)")):
            print(answer)   # ground argument tuples
    """

    def __init__(
        self,
        program: Program,
        db: Database,
        registry: Optional[BuiltinRegistry] = None,
    ):
        check_program_safety(program)
        for rule in program.rules:
            if rule.has_aggregates:
                raise ProgramError("top-down evaluation does not support aggregates")
        analysis = classify(program)
        if analysis.strata is None:
            raise ProgramError(
                "top-down tabling requires a stratified program"
            )
        self.program = program
        self.db = db
        self.registry = registry or (db.registry if db else DEFAULT_REGISTRY)
        self.idb = program.idb_predicates()
        self._tables: Dict[Tuple[str, Tuple], _Table] = {}
        self._depth = 0
        for fact in program.facts:
            db.assert_atom(fact)

    # -- public API ------------------------------------------------------

    def query(self, goal: Atom) -> Set[ArgsTuple]:
        """All ground instances of ``goal`` derivable from the program.

        Returns full argument tuples (the goal's constants included).
        """
        table = self._solve(goal)
        return set(table.answers)

    def ask(self, goal: Atom) -> bool:
        """Does any instance of ``goal`` hold?"""
        return bool(self.query(goal))

    # -- tabling -----------------------------------------------------------

    def _solve(self, goal: Atom) -> _Table:
        """Evaluate a (possibly non-ground) goal to fixpoint.

        Mutually recursive tables form a strongly connected activation
        group whose answers grow together, so completion can only be
        decided globally: the *outermost* activation iterates until no
        table anywhere grows, then marks every table complete.  Inner
        activations expand one round and return their current answers;
        recursive re-entry (an in-progress table) simply consumes what
        is there so far.
        """
        key = _canonical(goal)
        table = self._tables.get(key)
        if table is None:
            table = _Table()
            self._tables[key] = table
        if table.complete or table.in_progress:
            return table
        table.in_progress = True
        outermost = self._depth == 0
        self._depth += 1
        try:
            if outermost:
                for _ in range(_MAX_ITERATIONS):
                    before = self._total_answers()
                    self._expand(goal, table)
                    if self._total_answers() == before:
                        break
                else:
                    raise EvaluationError(
                        "tabled evaluation did not converge "
                        f"(> {_MAX_ITERATIONS} iterations)"
                    )
                # Everything reached from this activation is saturated.
                # Tables still in progress belong to an enclosing
                # activation (we were re-entered for a negated subgoal)
                # and may yet grow — leave those open.
                for t in self._tables.values():
                    if not t.in_progress or t is table:
                        t.complete = True
            else:
                self._expand(goal, table)
        finally:
            self._depth -= 1
            table.in_progress = False
        return table

    def _total_answers(self) -> int:
        return sum(len(t.answers) for t in self._tables.values())

    def _expand(self, goal: Atom, table: _Table) -> None:
        """One round: run every rule for the goal against the current
        tables, adding any new answers."""
        if goal.predicate not in self.idb:
            for row in self.db.relation(goal.predicate).candidates(
                goal.args, Substitution()
            ):
                if match_sequences(goal.args, row, Substitution()) is not None:
                    table.answers.add(row)
            return
        for rule in self.program.rules_for(goal.predicate):
            renamed = rule.rename_apart(f"td{id(table) & 0xFFFF}")
            head_bindings = unify_sequences(renamed.head.args, goal.args)
            if head_bindings is None:
                continue
            for subst in self._prove_body(renamed, head_bindings):
                answer = tuple(
                    value_to_term(eval_term(arg.substitute(subst), self.registry))
                    for arg in renamed.head.args
                )
                if all(a.is_ground() for a in answer):
                    table.answers.add(answer)

    def _prove_body(self, rule, bindings: Substitution) -> Iterator[Substitution]:
        ordered = order_body(rule)

        def recurse(idx: int, subst: Substitution) -> Iterator[Substitution]:
            if idx == len(ordered):
                yield subst
                return
            lit = ordered[idx]
            if isinstance(lit, BuiltinLiteral):
                for s2 in eval_builtin(lit, subst, self.registry):
                    yield from recurse(idx + 1, s2)
                return
            assert isinstance(lit, RelLiteral)
            subgoal = Atom(
                lit.predicate,
                [
                    normalize_partial(a.substitute(subst), self.registry)
                    for a in lit.atom.args
                ],
            )
            if lit.negated:
                # Safety guarantees (non-anonymous) groundness here.
                # The negated table must be *complete* before the
                # anti-check (a growing under-approximation would let
                # wrong answers through, and answers never retract);
                # stratification guarantees it can complete without
                # cycling back into this activation, so solve it in a
                # fresh outermost context.
                answers = self._complete_subquery(subgoal)
                if not any(
                    match_sequences(subgoal.args, row, Substitution()) is not None
                    for row in answers
                ):
                    yield from recurse(idx + 1, subst)
                return
            for row in self._subquery_answers(subgoal):
                row_bindings = match_sequences(subgoal.args, row, Substitution())
                if row_bindings is None:
                    continue
                s2 = Substitution(subst)
                s2.update(row_bindings)
                yield from recurse(idx + 1, s2)

        yield from recurse(0, Substitution(bindings))

    def _complete_subquery(self, subgoal: Atom) -> Set[ArgsTuple]:
        """Solve a (lower-stratum) subgoal to a completed table."""
        if subgoal.predicate not in self.idb:
            return self._subquery_answers(subgoal)
        saved = self._depth
        self._depth = 0
        try:
            return set(self._solve(subgoal).answers)
        finally:
            self._depth = saved

    def _subquery_answers(self, subgoal: Atom) -> Set[ArgsTuple]:
        if subgoal.predicate not in self.idb:
            out = set()
            for row in self.db.relation(subgoal.predicate).candidates(
                subgoal.args, Substitution()
            ):
                if match_sequences(subgoal.args, row, Substitution()) is not None:
                    out.add(row)
            return out
        key = _canonical(subgoal)
        existing = self._tables.get(key)
        if existing is not None and (existing.complete or existing.in_progress):
            # In-progress: consume current answers (fixpoint iteration
            # at the outermost activation closes the gap).
            return set(existing.answers)
        return set(self._solve(subgoal).answers)


def top_down_query(
    program: Program,
    db: Database,
    goal: Atom,
    registry: Optional[BuiltinRegistry] = None,
) -> Set[ArgsTuple]:
    """One-shot convenience wrapper around :class:`TopDownEvaluator`."""
    return TopDownEvaluator(program, db, registry).query(goal)
