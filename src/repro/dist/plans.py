"""Compiled distributed query plans.

The compiler output mirrors Fig. 3: per rule, an ordered list of join
conditions (the positive subgoals in join order), the negated subgoals,
and the built-in filters — this is the read-only "list of join
conditions" a real deployment would place in program flash, consumed by
the generic join component on every node.

For localized mode the list is compiled one step further:
:class:`DeltaJoin` is one (rule, trigger occurrence) with the rule's
variables turned into register slots and every argument classified once,
so a node runs a delta-join without unifying.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.ast import BuiltinLiteral, Literal, Program, RelLiteral, Rule
from ..core.builtins import (
    BuiltinRegistry,
    DEFAULT_REGISTRY,
    apply_arith,
    compare_values,
    eval_term,
    normalize_partial,
    value_to_term,
)
from ..core.errors import BuiltinError, EvaluationError, PlanError
from ..core.eval import order_body
from ..core.plan import rule_label
from ..core.safety import check_program_safety
from ..core.stratify import Analysis, ProgramClass, classify
from ..core.terms import (
    ARITH_FUNCTORS,
    Constant,
    FunctionTerm,
    Substitution,
    Term,
    Variable,
)
from ..core.unify import match_sequences


class RulePlan:
    """One rule, compiled: join order, negations, built-ins."""

    def __init__(self, rule: Rule):
        self.rule = rule
        self.rule_id = rule.rule_id if rule.rule_id is not None else -1
        self.head = rule.head
        ordered = order_body(rule)
        self.positive: List[RelLiteral] = [
            lit for lit in ordered
            if isinstance(lit, RelLiteral) and not lit.negated
        ]
        self.negative: List[RelLiteral] = [
            lit for lit in ordered if isinstance(lit, RelLiteral) and lit.negated
        ]
        self.builtins: List[BuiltinLiteral] = [
            lit for lit in ordered if isinstance(lit, BuiltinLiteral)
        ]
        if not self.positive:
            raise PlanError(
                f"rule {rule!r} has no positive relational subgoal"
            )

    @property
    def has_negation(self) -> bool:
        return bool(self.negative)

    @property
    def n_positive(self) -> int:
        return len(self.positive)

    def positive_predicates(self) -> Set[str]:
        return {lit.predicate for lit in self.positive}

    def negative_predicates(self) -> Set[str]:
        return {lit.predicate for lit in self.negative}

    def __repr__(self) -> str:
        return f"RulePlan(#{self.rule_id}: {self.rule!r})"


class DistributedPlan:
    """The whole program compiled for in-network evaluation."""

    def __init__(
        self,
        program: Program,
        registry: Optional[BuiltinRegistry] = None,
        allow_local_nonrecursive: bool = False,
    ):
        check_program_safety(program)
        for rule in program.rules:
            if rule.has_aggregates:
                raise PlanError(
                    "in-network evaluation of head aggregates is delegated to "
                    "the TAG layer (repro.net.aggregation); remove the "
                    "aggregate rule from the distributed program"
                )
        self.program = program
        self.registry = registry or DEFAULT_REGISTRY
        self.analysis: Analysis = classify(program)
        supported = {
            ProgramClass.NONRECURSIVE,
            ProgramClass.POSITIVE_RECURSIVE,
            ProgramClass.STRATIFIED,
            ProgramClass.XY_STRATIFIED,
        }
        if self.analysis.program_class not in supported and not allow_local_nonrecursive:
            raise PlanError(
                "program mixes recursion and negation beyond "
                "XY-stratification; pass allow_local_nonrecursive=True to "
                "run it anyway (correct only for locally non-recursive "
                "executions, Section IV-C)"
            )
        self.rule_plans: List[RulePlan] = [RulePlan(r) for r in program.rules]
        self.by_id: Dict[int, RulePlan] = {rp.rule_id: rp for rp in self.rule_plans}
        self.idb: Set[str] = program.idb_predicates()
        self.edb: Set[str] = program.edb_predicates()
        # Which rules must react to an update of predicate P?
        self.positive_triggers: Dict[str, List[Tuple[RulePlan, int]]] = {}
        self.negative_triggers: Dict[str, List[Tuple[RulePlan, int]]] = {}
        for rp in self.rule_plans:
            for i, lit in enumerate(rp.positive):
                self.positive_triggers.setdefault(lit.predicate, []).append((rp, i))
            for i, lit in enumerate(rp.negative):
                self.negative_triggers.setdefault(lit.predicate, []).append((rp, i))
        # Localized mode's delta-joins, by trigger predicate (empty
        # until compile_delta_joins; the GPA engine never asks).
        self.delta_joins: Dict[str, List[DeltaJoin]] = {}

    def compile_delta_joins(self) -> Dict[str, List["DeltaJoin"]]:
        """Compile one :class:`DeltaJoin` per positive trigger
        occurrence, in ``positive_triggers`` order.  Raises
        :class:`PlanError` for a rule localized mode cannot run."""
        if not self.delta_joins:
            self.delta_joins = {
                pred: [DeltaJoin(rp, occurrence) for rp, occurrence in triggers]
                for pred, triggers in self.positive_triggers.items()
            }
        return self.delta_joins

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
# Compiled delta-joins (localized mode)
# ---------------------------------------------------------------------------
#
# A DeltaJoin is plain data — tuples of opcodes, slot numbers and terms,
# no closures — so a DistributedPlan that carries them still pickles.
# Every rule variable that is read again gets a register slot holding
# the ground term it is bound to.
#
# Expressions over the registers:
#   (_SLOT, slot)                           a variable
#   (_VALUE, constant)                      a Constant of the rule text
#   (_ARITH, functor, (expr, ...), term)    arithmetic; term names it in errors
#   (_TERM, term, ((variable, slot), ...))  anything else (cons lists, f(X),
#                                           registered functions): substitute
#                                           and eval_term
_SLOT, _VALUE, _ARITH, _TERM = range(4)

# Built-in steps, run in order_body order once the positive join is complete:
#   (_ASSIGN, slot, expr)                   V = expr with V unbound
#   (_CMP, name, negated, (left, right))    a comparison
#   (_CALL, name, negated, (expr, ...))     a registered predicate
_ASSIGN, _CMP, _CALL = range(3)

# A positive literal is (predicate, arity, known, binds, rechecks,
# structural):
#   known       ((position, expr), ...)  arguments whose value is fixed
#               before the scan: constants, variables bound by an earlier
#               literal, complex terms over such variables
#   binds       ((position, slot), ...)  first occurrence of a variable
#   rechecks    ((position, first position), ...)  a repeated variable
#               first bound in this same literal: the two arguments of
#               the row must be equal (unnormalized, as one-way matching
#               compares them)
#   structural  None, or (args, bound pairs, fresh pairs) for a literal
#               with a complex argument that has a variable of its own
#               (say [H | T] or f(X)): the whole literal is matched with
#               match_sequences, as before it was compiled


def _slot_of(var: Variable, slots: Dict[Variable, int]) -> int:
    if var not in slots:
        raise PlanError(
            f"variable {var!r} is bound by no positive subgoal or "
            "assignment before it is read"
        )
    return slots[var]


def _compile_expr(term: Term, slots: Dict[Variable, int]) -> tuple:
    if isinstance(term, Constant):
        return (_VALUE, term)
    if isinstance(term, Variable):
        return (_SLOT, _slot_of(term, slots))
    if term.functor in ARITH_FUNCTORS:
        return (
            _ARITH, term.functor,
            tuple(_compile_expr(a, slots) for a in term.args), term,
        )
    pairs = {var: _slot_of(var, slots) for var in term.variables()}
    return (_TERM, term, tuple(pairs.items()))


def _compile_literal(
    lit: RelLiteral, slots: Dict[Variable, int], uses: Dict[Variable, int]
) -> tuple:
    """Compile one positive literal against the variables bound so far,
    giving slots to the variables it binds.  A variable that occurs once
    in the whole rule (``_`` always does) is never read: no slot."""
    args = lit.atom.args
    entry = set(slots)
    if any(
        isinstance(a, FunctionTerm) and not entry.issuperset(a.variables())
        for a in args
    ):
        bound = tuple((v, slots[v]) for v in entry.intersection(lit.variables()))
        fresh = []
        for var in lit.variables():
            if var not in slots and uses[var] > 1:
                slots[var] = len(slots)
                fresh.append((var, slots[var]))
        return (lit.predicate, len(args), (), (), (), (args, bound, tuple(fresh)))
    known, binds, rechecks = [], [], []
    first_at: Dict[Variable, int] = {}
    for pos, arg in enumerate(args):
        if not isinstance(arg, Variable) or arg in entry:
            known.append((pos, _compile_expr(arg, slots)))
        elif arg in first_at:
            rechecks.append((pos, first_at[arg]))
        elif uses[arg] > 1:
            first_at[arg] = pos
            slots[arg] = len(slots)
            binds.append((pos, slots[arg]))
    return (
        lit.predicate, len(args), tuple(known), tuple(binds), tuple(rechecks),
        None,
    )


def _compile_builtin(bl: BuiltinLiteral, slots: Dict[Variable, int]) -> tuple:
    if bl.name == "=" and not bl.negated:
        # order_body admits "=" only as a test of two bound sides or as
        # an assignment to a bare variable.
        left, right = bl.args
        for target, source in ((left, right), (right, left)):
            if isinstance(target, Variable) and target not in slots:
                expr = _compile_expr(source, slots)
                slots[target] = len(slots)
                return (_ASSIGN, slots[target], expr)
    exprs = tuple(_compile_expr(a, slots) for a in bl.args)
    return (_CMP if bl.is_comparison else _CALL, bl.name, bl.negated, exprs)


def _eval(expr: tuple, regs: list, registry: BuiltinRegistry) -> Any:
    """The value ``eval_term`` gives the expression's term under the
    bindings in ``regs``."""
    kind = expr[0]
    if kind == _SLOT:
        term = regs[expr[1]]
        if term.__class__ is Constant:
            return term.value
        return eval_term(term, registry)
    if kind == _VALUE:
        return expr[1].value
    if kind == _ARITH:
        return apply_arith(
            expr[1], [_eval(a, regs, registry) for a in expr[2]], expr[3]
        )
    subst = Substitution((var, regs[slot]) for var, slot in expr[2])
    return eval_term(expr[1].substitute(subst), registry)


def _eval_term(expr: tuple, regs: list, registry: BuiltinRegistry) -> Term:
    """``value_to_term(_eval(expr))`` — what ``normalize_partial`` and
    ``ground_head`` make of a ground argument.  A constant is its own
    normal form."""
    kind = expr[0]
    if kind == _VALUE:
        return expr[1]
    if kind == _SLOT:
        term = regs[expr[1]]
        if term.__class__ is Constant:
            return term
    return value_to_term(_eval(expr, regs, registry))


def _structural_rows(structural: tuple, table, regs: list, registry):
    """Rows matching a structural literal, each yielded after the
    literal's own variables are bound."""
    args, bound, fresh = structural
    subst = Substitution((var, regs[slot]) for var, slot in bound)
    pattern = tuple(
        normalize_partial(a.substitute(subst), registry) for a in args
    )
    for row in table:
        bindings = match_sequences(pattern, row)
        if bindings is not None:
            for var, slot in fresh:
                regs[slot] = bindings[var]
            yield row


def _scan_rows(table, arity: int, want: list, rechecks: tuple) -> list:
    """Rows of ``table`` with ``arity`` arguments that carry the terms
    of ``want`` at their positions and agree on repeated variables."""
    values = [(pos, t.value) for pos, t in want if t.__class__ is Constant]
    terms = [(pos, t) for pos, t in want if t.__class__ is not Constant]
    rows = []
    for row in table:
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
            rows.append(row)
    return rows


class DeltaJoin:
    """One rule's delta-join for one trigger occurrence, compiled once.

    The trigger literal comes first, then the rule's other positive
    literals in textual order; a literal whose arguments are all fixed
    by then is a membership probe, any other scans the node's table
    ``set`` itself, so matches come out in the order nested loops over
    those sets give.  Built-ins, head and negated atoms are evaluated
    from the registers per complete match.

    Tables must hold ground rows (they do: rows are ground heads or
    seeded values).  Every variable of a negated atom is then bound to
    a ground term by a positive literal or an assignment — checked here,
    at compile time — so the atoms shipped to be watched are ground.
    """

    __slots__ = (
        "rule_id", "label", "head_pred", "preds", "literals", "builtins",
        "head", "negs", "n_slots",
    )

    def __init__(self, rp: RulePlan, occurrence: int):
        rule = rp.rule
        self.rule_id = rp.rule_id
        self.label = rule_label(rule)
        self.head_pred = rp.head.predicate
        ordered = [rp.positive[occurrence]] + [
            lit for i, lit in enumerate(rp.positive) if i != occurrence
        ]
        #: Predicate of each row of a match's ``used`` tuple.
        self.preds = tuple(lit.predicate for lit in ordered)
        uses = Counter(
            var for part in (rule.head, *rule.body) for var in part.variables()
        )
        slots: Dict[Variable, int] = {}
        self.literals = tuple(
            _compile_literal(lit, slots, uses) for lit in ordered
        )
        self.builtins = tuple(_compile_builtin(bl, slots) for bl in rp.builtins)
        self.head = tuple(_compile_expr(a, slots) for a in rp.head.args)
        for nlit in rp.negative:
            free = [v for v in nlit.variables() if v not in slots]
            if free:
                raise PlanError(
                    "localized mode requires ground negated subgoals; "
                    f"{nlit!r} in rule {rule!r} leaves {free!r} unbound"
                )
        self.negs = tuple(
            (nlit.predicate, tuple(_compile_expr(a, slots) for a in nlit.atom.args))
            for nlit in rp.negative
        )
        self.n_slots = len(slots)

    def fire(
        self, tables: Dict[str, Set[tuple]], args: tuple,
        registry: BuiltinRegistry, stats: Optional[List[int]] = None,
    ) -> List[Tuple[tuple, tuple, tuple]]:
        """Delta-join the trigger fact ``args`` against a node's
        ``tables``: one ``(head args, used rows, negated atoms)`` per
        derivation, in match order.  ``used`` lines up with ``preds``.

        The join is complete before any match is concluded, so a
        caller may change the tables while it consumes the result.
        ``stats``, when given, collects [rows scanned, rows matched]
        over the table literals.
        """
        matches: List[Tuple[list, tuple]] = []
        self._join(
            0, (args,), tables, [None] * self.n_slots, [], registry, stats,
            matches,
        )
        out = []
        for regs, used in matches:
            concluded = self._conclude(regs, registry)
            if concluded is not None:
                head, negs = concluded
                out.append((head, used, negs))
        return out

    def _join(self, depth, table, tables, regs, used, registry, stats,
              matches) -> None:
        literals = self.literals
        _pred, arity, known, binds, rechecks, structural = literals[depth]
        scanned = len(table)
        if structural is not None:
            rows = _structural_rows(structural, table, regs, registry)
        else:
            want = [(pos, _eval_term(expr, regs, registry)) for pos, expr in known]
            if len(want) == arity:
                # Every argument is fixed: one membership probe instead
                # of a scan.  On a hit, hand out the stored row, not the
                # probe that equals it (1 == 1.0, and derivation
                # identities spell their rows).
                probe = tuple([term for _pos, term in want])
                rows = [row for row in table if row == probe] if probe in table else ()
                scanned = 1
            else:
                rows = _scan_rows(table, arity, want, rechecks)
        counted = stats if depth else None  # the trigger is not a table row
        if counted is not None:
            counted[0] += scanned
        deeper = depth + 1
        for row in rows:
            if counted is not None:
                counted[1] += 1
            for pos, slot in binds:
                regs[slot] = row[pos]
            used.append(row)
            if deeper == len(literals):
                matches.append((regs[:], tuple(used)))
            else:
                self._join(
                    deeper, tables.get(literals[deeper][0], ()), tables, regs,
                    used, registry, stats, matches,
                )
            used.pop()

    def _conclude(self, regs: list, registry: BuiltinRegistry):
        """(head args, negated atoms) of one positive match — None when
        a built-in fails or it or the head raises EvaluationError, the
        errors ``eval_builtin`` and ``ground_head`` callers swallowed.
        Errors normalizing a negated atom propagate, as they did."""
        try:
            for step in self.builtins:
                if step[0] == _ASSIGN:
                    regs[step[1]] = _eval_term(step[2], regs, registry)
                    continue
                kind, name, negated, exprs = step
                if kind == _CMP:
                    holds = compare_values(
                        name, *[_eval(a, regs, registry) for a in exprs]
                    )
                else:
                    fn = registry.predicate(name)
                    if fn is None:
                        raise BuiltinError(f"unknown built-in predicate {name!r}")
                    holds = bool(fn(*[_eval(a, regs, registry) for a in exprs]))
                if holds == negated:
                    return None
            head = tuple([_eval_term(a, regs, registry) for a in self.head])
        except EvaluationError:
            return None
        negs = tuple([
            (pred, tuple([_eval_term(a, regs, registry) for a in exprs]))
            for pred, exprs in self.negs
        ])
        return head, negs

    def __repr__(self) -> str:
        return f"DeltaJoin({self.label}, trigger {self.preds[0]})"
