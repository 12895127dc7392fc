"""Compiled distributed query plans.

The compiler output mirrors Fig. 3: per rule, an ordered list of join
conditions (the positive subgoals in join order), the negated subgoals,
and the built-in filters — this is the read-only "list of join
conditions" a real deployment would place in program flash, consumed by
the generic join component on every node.

The rule compiler is :mod:`repro.core.plan`'s, shared with the central
engine: the rule's variables are register slots and a subgoal's
arguments are classified once per set of registers bound before it
(:meth:`CompiledPlan.step <repro.core.plan.CompiledPlan.step>`), so a
node joins without unifying.  This module is the distributed consumer of
those steps: the engines read each rule's process-wide
:class:`~repro.core.plan.CompiledPlan` directly.  Both modes start a
join from :meth:`CompiledPlan.seed <repro.core.plan.CompiledPlan.seed>`
and finish a complete match through :func:`conclude`.  Localized mode
joins the other subgoals in the fixed order of
:meth:`CompiledPlan.walk <repro.core.plan.CompiledPlan.walk>`
(:func:`delta_join`); a GPA token joins in whatever order its path
meets the replicas (:func:`probe`, :func:`matching`, :func:`bind`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.ast import Program
from ..core.builtins import BuiltinRegistry, DEFAULT_REGISTRY
from ..core.errors import EvaluationError, PlanError
from ..core.plan import (
    GLOBAL_PLAN_CACHE,
    CompiledPlan,
    Step,
    _eval_term,
    _structural_matches,
    _structural_pattern,
    _structural_rows,
    run_builtin,
    seed_holds,
)
from ..core.safety import check_program_safety
from ..core.stratify import Analysis, ProgramClass, classify
from ..core.terms import Constant
from ..core.unify import match_sequences


class DistributedPlan:
    """The whole program compiled for in-network evaluation."""

    def __init__(
        self,
        program: Program,
        registry: Optional[BuiltinRegistry] = None,
        allow_local_nonrecursive: bool = False,
    ):
        check_program_safety(program)
        self.program = program
        self.registry = registry or DEFAULT_REGISTRY
        self.analysis: Analysis = classify(program)
        unsupported = self.analysis.program_class is ProgramClass.LOCALLY_NONRECURSIVE_REQUIRED
        if unsupported and not allow_local_nonrecursive:
            raise PlanError(
                "program mixes recursion and negation beyond "
                "XY-stratification; pass allow_local_nonrecursive=True to "
                "run it anyway (correct only for locally non-recursive "
                "executions, Section IV-C)"
            )
        #: The process-wide compiled plan of each rule (a rule the
        #: central engine also evaluates is ordered and classified once).
        self.rule_plans: List[CompiledPlan] = []
        for rule in program.rules:
            rp = GLOBAL_PLAN_CACHE.get(rule)
            if not rp.positive:
                raise PlanError(f"rule {rule!r} has no positive relational subgoal")
            self.rule_plans.append(rp)
        self.by_id: Dict[int, CompiledPlan] = {rp.rule_id: rp for rp in self.rule_plans}
        self.idb: Set[str] = program.idb_predicates()
        self.edb: Set[str] = program.edb_predicates()
        # Which rules must react to an update of predicate P?
        self.positive_triggers: Dict[str, List[Tuple[CompiledPlan, int]]] = {}
        self.negative_triggers: Dict[str, List[Tuple[CompiledPlan, int]]] = {}
        for rp in self.rule_plans:
            for i, lit in enumerate(rp.positive):
                self.positive_triggers.setdefault(lit.predicate, []).append((rp, i))
            for i, lit in enumerate(rp.negative):
                self.negative_triggers.setdefault(lit.predicate, []).append((rp, i))

    def predicates(self) -> Set[str]:
        return self.idb | self.edb

    def consumed(self, predicate: str) -> bool:
        """Is the predicate read by any rule (so its updates need join
        phases)?"""
        return predicate in self.positive_triggers or predicate in self.negative_triggers

    def __repr__(self) -> str:
        return (
            f"DistributedPlan({len(self.rule_plans)} rules, "
            f"{self.analysis.program_class.value})"
        )


# ---------------------------------------------------------------------------
# Joining compiled steps (both distributed modes)
# ---------------------------------------------------------------------------


def conclude(builtins: tuple, head: tuple, regs: list, registry,
             check: Optional[tuple], args: tuple) -> Optional[tuple]:
    """Head arguments of one complete positive match, assignments
    written to ``regs`` — None when a built-in fails, when the trigger
    ``args`` fail the ``check`` its seed deferred
    (:func:`~repro.core.plan.seed_holds`), or when any of them or the
    head raises EvaluationError: a node drops the match where the
    central engine raises."""
    try:
        for step in builtins:
            if not run_builtin(step, regs, registry):
                return None
        if check is not None and not seed_holds(check, regs, args, registry):
            return None
        return tuple([_eval_term(a, regs, registry) for a in head])
    except EvaluationError:
        return None


# -- GPA mode: a token visit is probe() once per carried partial result and
# uncovered subgoal, matching() over the node's window, bind() per match


def probe(step: Step, regs: list, registry: BuiltinRegistry) -> tuple:
    """A step's subgoal under ``regs``, ready to be compared with
    stored tuples: (arity, values, terms, rechecks, pattern) — the known
    arguments evaluated, ((position, Constant.value), ...) and
    ((position, other ground term), ...), or for a structural step only
    the normalized pattern.  Raises what normalizing the pattern raised."""
    _pred, arity, known, _binds, rechecks, structural, _after = step
    if structural is not None:
        return (arity, (), (), (), _structural_pattern(structural, regs, registry))
    values, terms = [], []
    for pos, expr in known:
        term = _eval_term(expr, regs, registry)
        if term.__class__ is Constant:
            values.append((pos, term.value))
        else:
            terms.append((pos, term))
    return (arity, values, terms, rechecks, None)


def matching(probe: tuple, tuples) -> list:
    """``(tuple, bindings)`` for every stream tuple of ``tuples`` (any
    object with ``args``) the probe matches, in order; ``bindings`` is
    None unless the step is structural.  The loop of
    :func:`repro.core.plan._scan_rows`, kept apart: a token visit pays
    twice as much to go through one written for plain rows."""
    arity, values, terms, rechecks, pattern = probe
    if pattern is not None:
        pairs = [(tup, match_sequences(pattern, tup.args)) for tup in tuples]
        return [pair for pair in pairs if pair[1] is not None]
    found = []
    for tup in tuples:
        row = tup.args
        if len(row) != arity:
            continue
        for pos, value in values:
            term = row[pos]
            if term.__class__ is not Constant or term.value != value:
                break
        else:
            if terms and any(row[pos] != term for pos, term in terms):
                continue
            if rechecks and any(row[pos] != row[first] for pos, first in rechecks):
                continue
            found.append((tup, None))
    return found


def bind(step: Step, regs: list, tup, bindings) -> list:
    """The registers after ``step`` matched ``tup``: a copy of ``regs``
    with the step's variables set from the stored tuple's own arguments
    (1 == 1.0: the stored spelling travels on)."""
    regs = regs[:]
    if bindings is None:
        row = tup.args
        for pos, slot in step.binds:
            regs[slot] = row[pos]
    else:
        for var, slot in step.structural[2]:
            regs[slot] = bindings[var]
    return regs


def delta_join(
    rp: CompiledPlan, occurrence: int, tables: Dict[str, Dict[tuple, tuple]],
    args: tuple, ref: tuple, registry: BuiltinRegistry,
    stats: Optional[List[int]] = None,
) -> List[Tuple[tuple, tuple, tuple]]:
    """Localized mode's join of the trigger fact ``args``, whose ref is
    ``ref``, as subgoal ``occurrence`` of ``rp.positive``, against a
    node's ``tables`` (pred -> {row: ref}): one ``(head args, record,
    negated atoms)`` per derivation, in match order.

    The join starts from :meth:`CompiledPlan.seed` and takes the other
    positive subgoals in the fixed order of :meth:`CompiledPlan.walk`;
    a subgoal whose arguments are all fixed by then is one lookup, any
    other scans the node's table itself, so matches come out in the
    order nested loops over those tables give.  A match files each
    row's ref at its subgoal's body position, so it yields the central
    record ``(rule_id, ref_1, ..., ref_k)``; it is finished by
    :func:`conclude`, and its negated atoms are evaluated from the
    registers (every one is ground: ``LocalizedEngine.install`` checks).

    The join is complete before any match is concluded, so a caller may
    change the tables while it consumes the result.  ``stats``, when
    given, collects [rows scanned, rows matched] over the table
    subgoals.
    """
    seeded = rp.seed(occurrence, args, registry, False)
    if seeded is None:
        return []
    regs, _mask, check = seeded
    steps, (builtins, head, negs) = rp.walk(occurrence)
    record = [None] * (len(steps) + 2)
    record[0] = rp.rule_id
    record[occurrence + 1] = ref
    if steps:
        matches: List[Tuple[list, tuple]] = []
        _join(steps, 0, tables, regs, record, registry, stats, matches)
    else:
        matches = [(regs, tuple(record))]
    out = []
    for regs, record in matches:
        head_args = conclude(builtins, head, regs, registry, check, args)
        if head_args is not None:
            # Errors normalizing a negated atom propagate.
            out.append((head_args, record, tuple([
                (step.pred, tuple([_eval_term(e, regs, registry) for _pos, e in step.known]))
                for step in negs
            ])))
    return out


def _join(steps, depth, tables, regs, record, registry, stats, matches) -> None:
    index, (pred, arity, known, binds, rechecks, structural, _after) = steps[depth]
    table = tables.get(pred, {})
    scanned = len(table)
    if structural is not None:
        pattern = _structural_pattern(structural, regs, registry)
        rows = ((row, table[row]) for row in _structural_rows(
            _structural_matches(pattern, table), structural[2], regs
        ))
    else:
        want = [(pos, _eval_term(expr, regs, registry)) for pos, expr in known]
        if len(want) == arity:
            # Every argument is fixed: one lookup instead of a scan.  A
            # hit hands out the stored row's ref, which is the probe's
            # too (1 == 1.0 is one fact); nothing is bound.
            probe = tuple([term for _pos, term in want])
            ref = table.get(probe)
            rows = () if ref is None else ((probe, ref),)
            scanned = 1
        else:
            rows = _scan_items(table, arity, want, rechecks)
    if stats is not None:
        stats[0] += scanned
    position, deeper = index + 1, depth + 1
    for row, ref in rows:
        if stats is not None:
            stats[1] += 1
        for pos, slot in binds:
            regs[slot] = row[pos]
        record[position] = ref
        if deeper == len(steps):
            matches.append((regs[:], tuple(record)))
        else:
            _join(steps, deeper, tables, regs, record, registry, stats, matches)


def _scan_items(table: Dict[tuple, tuple], arity: int, want: list,
                rechecks: tuple) -> list:
    """``(row, ref)`` of every row of ``table`` that
    :func:`repro.core.plan._scan_rows` would return, in table order."""
    if not want and not rechecks:
        return [item for item in table.items() if len(item[0]) == arity]
    values = [(pos, t.value) for pos, t in want if t.__class__ is Constant]
    terms = [(pos, t) for pos, t in want if t.__class__ is not Constant]
    found = []
    for item in table.items():
        row = item[0]
        if len(row) != arity:
            continue
        for pos, value in values:
            term = row[pos]
            if term.__class__ is not Constant or term.value != value:
                break
        else:
            if terms and any(row[pos] != term for pos, term in terms):
                continue
            if rechecks and any(row[pos] != row[first] for pos, first in rechecks):
                continue
            found.append(item)
    return found
