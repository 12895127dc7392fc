"""Compiled distributed query plans.

The compiler output mirrors Fig. 3: per rule, an ordered list of join
conditions (the positive subgoals in join order), the negated subgoals,
and the built-in filters — this is the read-only "list of join
conditions" a real deployment would place in program flash, consumed by
the generic join component on every node.

Both distributed modes run it compiled one step further: the rule's
variables are register slots and a subgoal's arguments are classified
once per set of registers bound before it (:meth:`RulePlan.step`), so a
node joins without unifying.  Localized mode fixes the join order per
trigger (:class:`DeltaJoin`); a GPA token joins in whatever order its
path meets the replicas (:func:`probe`, :func:`matching`, :func:`bind`).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

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
        self.label = rule_label(rule)
        # One register per variable, whatever order the subgoals are
        # joined in.  A set of bound registers is a bit mask over the
        # slots; steps and conclusions are compiled per mask, on first use.
        self.uses = Counter(
            var for part in (rule.head, *rule.body) for var in part.variables()
        )
        self.slots: Dict[Variable, int] = {
            var: slot for slot, var in enumerate(self.uses)
        }
        self._compiled: Dict[Any, tuple] = {}

    @property
    def has_negation(self) -> bool:
        return bool(self.negative)

    @property
    def n_positive(self) -> int:
        return len(self.positive)

    def step(self, idx: int, mask: int, negated: bool = False) -> "Step":
        """Subgoal ``idx`` (of ``negative`` when ``negated``) compiled
        against the registers in ``mask``."""
        key = (idx, mask, negated)
        step = self._compiled.get(key)
        if step is None:
            lit = (self.negative if negated else self.positive)[idx]
            step = self._compiled[key] = _compile_literal(
                lit, mask, self.slots, self.uses
            )
        return step

    def conclusion(self, mask: int) -> tuple:
        """What follows a complete positive match whose registers are
        ``mask``: (built-in steps, head expressions, negated subgoals as
        steps against the registers the built-ins leave bound)."""
        found = self._compiled.get(mask)
        if found is None:
            bound = _bound(self.slots, mask)
            builtins = tuple(
                _compile_builtin(bl, bound, self.slots) for bl in self.builtins
            )
            head = tuple(_compile_expr(a, bound) for a in self.head.args)
            after = sum(1 << slot for slot in bound.values())
            negs = tuple(
                self.step(i, after, True) for i in range(len(self.negative))
            )
            found = self._compiled[mask] = (builtins, head, negs)
        return found

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
# Compiled joins (both distributed modes)
# ---------------------------------------------------------------------------
#
# Everything compiled is plain data — tuples of opcodes, slot numbers
# and terms, no closures — so a DistributedPlan that carries it still
# pickles.  A register holds the ground term its variable is bound to.
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


class Step(NamedTuple):
    """A subgoal compiled against a set of bound registers."""

    pred: str
    arity: int
    #: ((position, expr), ...): arguments whose value is fixed before
    #: the scan — constants, bound variables, complex terms over them.
    known: tuple
    #: ((position, slot), ...): first occurrence of an unbound variable
    #: that the rule reads again outside this subgoal (``_`` never is).
    binds: tuple
    #: ((position, first position), ...): a repeated variable first met
    #: in this same subgoal — the two arguments of the row must be equal
    #: (unnormalized, as one-way matching compares them).
    rechecks: tuple
    #: None, or (args, bound pairs, fresh pairs) for a subgoal with a
    #: complex argument that has an unbound variable ([H | T], f(X)):
    #: the whole subgoal goes through match_sequences, as it used to.
    structural: Optional[tuple]
    #: The bound registers once the step has matched.
    after: int


def _bound(slots: Dict[Variable, int], mask: int) -> Dict[Variable, int]:
    return {var: slot for var, slot in slots.items() if mask >> slot & 1}


def _slot_of(var: Variable, bound: Dict[Variable, int]) -> int:
    if var not in bound:
        raise PlanError(
            f"variable {var!r} is bound by no positive subgoal or "
            "assignment before it is read"
        )
    return bound[var]


def _compile_expr(term: Term, bound: Dict[Variable, int]) -> tuple:
    if isinstance(term, Constant):
        return (_VALUE, term)
    if isinstance(term, Variable):
        return (_SLOT, _slot_of(term, bound))
    if term.functor in ARITH_FUNCTORS:
        return (
            _ARITH, term.functor,
            tuple(_compile_expr(a, bound) for a in term.args), term,
        )
    pairs = {var: _slot_of(var, bound) for var in term.variables()}
    return (_TERM, term, tuple(pairs.items()))


def _compile_literal(
    lit: RelLiteral, mask: int, slots: Dict[Variable, int],
    uses: Dict[Variable, int],
) -> Step:
    """Compile one subgoal against the registers in ``mask``."""
    args = lit.atom.args
    bound = _bound(slots, mask)
    local = Counter(lit.variables())
    fresh = {
        var: slots[var] for var in local
        if var not in bound and uses[var] > local[var]
    }
    after = mask | sum(1 << slot for slot in fresh.values())
    if any(
        isinstance(a, FunctionTerm) and not bound.keys() >= set(a.variables())
        for a in args
    ):
        pairs = tuple((var, bound[var]) for var in local if var in bound)
        structural = (args, pairs, tuple(fresh.items()))
        return Step(lit.predicate, len(args), (), (), (), structural, after)
    known, binds, rechecks = [], [], []
    first_at: Dict[Variable, int] = {}
    for pos, arg in enumerate(args):
        if not isinstance(arg, Variable) or arg in bound:
            known.append((pos, _compile_expr(arg, bound)))
        elif arg in first_at:
            rechecks.append((pos, first_at[arg]))
        else:
            first_at[arg] = pos
            if arg in fresh:
                binds.append((pos, fresh[arg]))
    return Step(
        lit.predicate, len(args), tuple(known), tuple(binds), tuple(rechecks),
        None, after,
    )


def _compile_builtin(
    bl: BuiltinLiteral, bound: Dict[Variable, int], slots: Dict[Variable, int]
) -> tuple:
    """Compile one built-in; an assignment adds its target to ``bound``."""
    if bl.name == "=" and not bl.negated:
        # order_body admits "=" only as a test of two bound sides or as
        # an assignment to a bare variable.
        left, right = bl.args
        for target, source in ((left, right), (right, left)):
            if isinstance(target, Variable) and target not in bound:
                expr = _compile_expr(source, bound)
                bound[target] = slots[target]
                return (_ASSIGN, slots[target], expr)
    exprs = tuple(_compile_expr(a, bound) for a in bl.args)
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


def _structural_pattern(structural: tuple, regs: list, registry) -> tuple:
    args, bound, _fresh = structural
    subst = Substitution((var, regs[slot]) for var, slot in bound)
    return tuple(normalize_partial(a.substitute(subst), registry) for a in args)


def _structural_rows(structural: tuple, table, regs: list, registry):
    """Rows matching a structural literal, each yielded after the
    literal's own variables are bound."""
    pattern = _structural_pattern(structural, regs, registry)
    for row in table:
        bindings = match_sequences(pattern, row)
        if bindings is not None:
            for var, slot in structural[2]:
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


def conclude(builtins: tuple, head: tuple, regs: list, registry) -> Optional[tuple]:
    """Head arguments of one complete positive match, assignments
    written to ``regs`` — None when a built-in fails or it or the head
    raises EvaluationError, the errors ``eval_builtin`` and
    ``ground_head`` callers swallowed."""
    try:
        for step in builtins:
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
    None unless the step is structural.  :func:`_scan_rows`' loop."""
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
    (1 == 1.0, and derivation identities spell their rows)."""
    regs = regs[:]
    if bindings is None:
        row = tup.args
        for pos, slot in step.binds:
            regs[slot] = row[pos]
    else:
        for var, slot in step.structural[2]:
            regs[slot] = bindings[var]
    return regs


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
        self.rule_id = rp.rule_id
        self.label = rp.label
        self.head_pred = rp.head.predicate
        order = [occurrence] + [
            i for i in range(rp.n_positive) if i != occurrence
        ]
        #: Predicate of each row of a match's ``used`` tuple.
        self.preds = tuple(rp.positive[i].predicate for i in order)
        mask, literals = 0, []
        for i in order:
            literals.append(rp.step(i, mask))
            mask = literals[-1].after
        self.literals = tuple(literals)
        self.builtins, self.head, negs = rp.conclusion(mask)
        for nlit, step in zip(rp.negative, negs):
            if step.structural is not None or len(step.known) != step.arity:
                free = [v for v in nlit.variables() if not step.after >> rp.slots[v] & 1]
                raise PlanError(
                    "localized mode requires ground negated subgoals; "
                    f"{nlit!r} in rule {rp.rule!r} leaves {free!r} unbound"
                )
        self.negs = tuple(
            (step.pred, tuple(expr for _pos, expr in step.known)) for step in negs
        )
        self.n_slots = len(rp.slots)

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
            # Errors normalizing a negated atom propagate, as they did.
            head = conclude(self.builtins, self.head, regs, registry)
            if head is not None:
                out.append((head, used, tuple([
                    (pred, tuple([_eval_term(a, regs, registry) for a in exprs]))
                    for pred, exprs in self.negs
                ])))
        return out

    def _join(self, depth, table, tables, regs, used, registry, stats,
              matches) -> None:
        literals = self.literals
        _pred, arity, known, binds, rechecks, structural, _after = literals[depth]
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
                full = tuple([term for _pos, term in want])
                rows = [row for row in table if row == full] if full in table else ()
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

    def __repr__(self) -> str:
        return f"DeltaJoin({self.label}, trigger {self.preds[0]})"
