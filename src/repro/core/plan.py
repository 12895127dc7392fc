"""Compiled rule plans: the one rule compiler and the central join executor.

Section V of the paper compiles a program once into the read-only "list
of join conditions" a generic join component consumes (Fig. 3).  This
module is that compiler, for every engine: :func:`order_body` orders a
rule's subgoals and :class:`CompiledPlan` gives each variable a register
and classifies each subgoal per set of registers bound before it
(:class:`Step`: which arguments are fixed before the scan, which bind,
which re-check), with built-ins and head as expression tuples over the
registers.  Three consumers read the same steps — the tuple executor
here (:meth:`CompiledPlan.execute`), the batch kernels of
:mod:`repro.core.vector` and the distributed joins of
:mod:`repro.dist.plans` — and all compile through one :class:`PlanCache`.
A join that starts from one arriving fact — a GPA token, a localized
node's delta-join, a maintainer's blocker update — starts from
:meth:`CompiledPlan.seed`.
:func:`seed_engine` routes evaluation through the original recursive
enumerator instead, the reference oracle of the differential tests.

The tuple executor performs *probe memoization*: within one rule
execution, identical probes against the same subgoal reuse the
matched-row list instead of re-probing the relation index, and the
semi-naive delta occurrence is joined through a transient per-execution
hash index instead of a linear scan per outer row.  Both are safe
because a relation only ever grows during evaluation and anything a
snapshot misses is re-derived from the next round's delta.  A delta of
a few rows is joined first, so the rest of the body is probed on what
it binds.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from ..obs import instrument as _inst
from ..obs import state as _obs
from .aggregates import Aggregate
from .ast import Atom, BuiltinLiteral, Literal, RelLiteral, Rule
from .builtins import (
    BuiltinRegistry,
    apply_arith,
    compare_values,
    eval_term,
    normalize_partial,
    value_to_term,
)
from .derivations import FactKey
from .errors import BuiltinError, PlanError, ProgramError
from .terms import (
    ARITH_FUNCTORS,
    Constant,
    FunctionTerm,
    Substitution,
    Term,
    Variable,
)
from .unify import match_sequences


def rule_label(rule: Rule) -> str:
    """Stable telemetry label for a rule: head predicate plus id."""
    if rule.rule_id is not None:
        return f"{rule.head.predicate}#r{rule.rule_id}"
    return rule.head.predicate


def _computed_vars(term: Term) -> Set[Variable]:
    """The variables ``term`` reads inside an arithmetic subterm.  A
    subgoal matches such an argument only once they are bound (no stored
    number matches ``X + 1``); the rest of a function term (``f(X)``)
    matches structurally and binds."""
    if not isinstance(term, FunctionTerm):
        return set()
    if term.functor in ARITH_FUNCTORS:
        return set(term.variables())
    return set().union(*map(_computed_vars, term.args))


def order_body(rule: Rule, lead: Optional[RelLiteral] = None) -> List[Literal]:
    """Order subgoals for left-to-right evaluation.

    Greedy: at each step emit any built-in or negated subgoal whose
    variables are already bound (built-ins as early as possible — they
    are cheap local filters), otherwise the next positive relational
    subgoal in textual order.  A positive subgoal with a computed
    argument (``b(X + 1)``) waits while another pending subgoal or
    assignment can still bind that argument's variables; a rule where no
    order binds them before the subgoal is refused.

    ``lead``, a positive subgoal of ``rule.body`` (the very object),
    goes first — the delta a tiny semi-naive or maintenance call ranges
    over — and the next positive subgoal is then the first in textual
    order that shares a bound variable, so each probes on what came
    before it (``h(_, X, D)``, ``g(X, Y)``, ``h(_, Y, Dp)``).  Without
    ``lead`` nothing is preferred.
    """
    pending = list(rule.body)
    ordered: List[Literal] = []
    bound: Set[Variable] = set()
    if lead is not None:
        del pending[next(i for i, lit in enumerate(pending) if lit is lead)]
        ordered.append(lead)
        bound.update(lead.variables())

    def ready(lit: Literal) -> bool:
        if isinstance(lit, BuiltinLiteral):
            if lit.name == "=" and not lit.negated and len(lit.args) == 2:
                left, right = lit.args
                left_vars = set(left.variables())
                right_vars = set(right.variables())
                if left_vars <= bound and right_vars <= bound:
                    return True  # pure test
                # Assignment: the unbound side must be a bare variable
                # (arithmetic is not inverted — T1 = T + 1 cannot run
                # until T is bound, even if T1 already is).
                if isinstance(left, Variable) and right_vars <= bound:
                    return True
                if isinstance(right, Variable) and left_vars <= bound:
                    return True
                return False
            return all(v in bound for v in lit.variables())
        if isinstance(lit, RelLiteral) and lit.negated:
            return all(v in bound or v.is_anonymous for v in lit.variables())
        return False

    def binders(lit: Literal) -> Set[Variable]:
        """What ``lit`` may bind: a positive subgoal its variables, an
        assignment its bare-variable sides."""
        if isinstance(lit, RelLiteral):
            return set() if lit.negated else set(lit.variables())
        if lit.name == "=" and not lit.negated and len(lit.args) == 2:
            return {arg for arg in lit.args if isinstance(arg, Variable)}
        return set()

    def joinable(lit: Literal) -> bool:
        """Can positive subgoal ``lit`` join now: are the variables of
        its computed arguments bound?  Raises when no pending subgoal or
        assignment can ever bind them."""
        missing = set().union(*map(_computed_vars, lit.atom.args)) - bound
        if missing and not missing & set().union(
                *(binders(o) for o in pending if o is not lit)):
            raise ProgramError(
                f"cannot order body of rule {rule!r}: no subgoal binds "
                f"{', '.join(sorted(map(repr, missing)))} before the "
                f"computed argument of {lit!r}"
            )
        return not missing

    def shares(lit: Literal) -> bool:
        return any(v in bound for v in lit.variables() if not v.is_anonymous)

    while pending:
        at = next((i for i, lit in enumerate(pending) if ready(lit)), None)
        if at is None:
            positive = [i for i, lit in enumerate(pending)
                        if isinstance(lit, RelLiteral) and not lit.negated]
            if not positive:
                raise ProgramError(
                    f"cannot order body of rule {rule!r}: unbound built-in "
                    "or negated subgoal (rule is unsafe?)"
                )
            at = next((i for i in positive if joinable(pending[i])), None)
            if at is None:
                raise ProgramError(
                    f"cannot order body of rule {rule!r}: every positive subgoal "
                    "has a computed argument whose variables another binds"
                )
            if lead is not None and not shares(pending[at]):
                at = next((i for i in positive if i > at and shares(pending[i])
                           and joinable(pending[i])), at)
        lit = pending.pop(at)
        ordered.append(lit)
        bound.update(lit.variables())
    return ordered


# ---------------------------------------------------------------------------
# The rule compiler
# ---------------------------------------------------------------------------
#
# A rule's variables are register slots and a set of bound registers is
# a bit mask over them.  Everything compiled is plain data — tuples of
# opcodes, slot numbers and terms, no closures — so a plan still
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

# Built-in steps:
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
    #: the whole subgoal goes through match_sequences.
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


# ---------------------------------------------------------------------------
# Running compiled steps
# ---------------------------------------------------------------------------


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


def run_builtin(step: tuple, regs: list, registry: BuiltinRegistry) -> bool:
    """Does the built-in ``step`` hold under ``regs``?  An assignment
    writes its target register and holds.  Raises what evaluating the
    arguments raises (``BuiltinError``, ``ZeroDivisionError``)."""
    if step[0] == _ASSIGN:
        regs[step[1]] = _eval_term(step[2], regs, registry)
        return True
    kind, name, negated, exprs = step
    if kind == _CMP:
        holds = compare_values(name, *[_eval(a, regs, registry) for a in exprs])
    else:
        fn = registry.predicate(name)
        if fn is None:
            raise BuiltinError(f"unknown built-in predicate {name!r}")
        holds = bool(fn(*[_eval(a, regs, registry) for a in exprs]))
    return holds != negated


def _structural_pattern(structural: tuple, regs: list, registry) -> tuple:
    args, bound, _fresh = structural
    subst = Substitution((var, regs[slot]) for var, slot in bound)
    return tuple(normalize_partial(a.substitute(subst), registry) for a in args)


def _structural_matches(pattern: tuple, table) -> list:
    """``(row, bindings)`` for every row of ``table`` the structural
    ``pattern`` matches one-way."""
    pairs = [(row, match_sequences(pattern, row)) for row in table]
    return [pair for pair in pairs if pair[1] is not None]


def _structural_rows(matches: list, fresh: tuple, regs: list):
    """The rows of ``matches``, each yielded after the subgoal's own
    variables are bound from its bindings."""
    for row, bindings in matches:
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


def seed_holds(check: tuple, regs: list, args: tuple, registry) -> bool:
    """Do the computed arguments a seed deferred (the ``check`` of
    :meth:`CompiledPlan.seed`), evaluated under ``regs``, equal those of
    the trigger ``args`` — compared as a probe compares a stored row?
    Raises what evaluating them raises."""
    want = [(pos, _eval_term(expr, regs, registry)) for pos, expr in check]
    return bool(_scan_rows((args,), len(args), want, ()))


# ---------------------------------------------------------------------------
# The compiled plan
# ---------------------------------------------------------------------------

#: Row deltas smaller than this run tuple-at-a-time, their own subgoal
#: joined first: the numpy kernels' per-call overhead beats Python loops
#: only once a few rows amortize it (the incremental maintainers'
#: one-row deltas always take the tuple path).
_MIN_BATCH = 4

# What a body position is to the central executor: a positive subgoal
# (its rows join), a negated one (an existence probe) or a built-in.
_JOIN, _NOT, _TEST = range(3)

#: What a built-in or negated subgoal that holds yields: one empty row.
_HOLDS = ((),)


class CompiledPlan:
    """One rule, compiled: everything any engine reads of it.

    ``body`` is :func:`order_body`'s result, computed here and nowhere
    else; ``positive`` / ``negative`` / ``builtins`` partition it in
    that order.  ``head`` is the atom a firing derives: the rule's head,
    or for an aggregate rule (``aggregate``, else None) its valuation
    (:mod:`repro.core.aggregates`).  A subgoal is compiled per set of
    registers bound before it, on first use (:meth:`step`), so the
    subgoals can be joined in any order: the central executors take them
    in ``body`` order (:meth:`program`), a tiny delta's occurrence
    first (:meth:`delta_program`); a join that starts from one
    fact starts from :meth:`seed` — a GPA token then takes them in the
    order its path meets them, a localized node in the fixed order of
    :meth:`walk` — and finishes a match with :meth:`conclusion`.
    ``rule_id`` is the rule's id, -1 for a rule without one.
    """

    __slots__ = (
        "rule", "rule_id", "label", "body", "positive", "negative", "builtins",
        "occurrences", "aggregate", "head", "uses", "slots", "_compiled",
        "_programs", "_seeds", "_batch",
    )

    def __init__(self, rule: Rule):
        self.rule = rule
        self.rule_id = rule.rule_id if rule.rule_id is not None else -1
        self.label = rule_label(rule)
        self.body: Tuple[Literal, ...] = tuple(order_body(rule))
        self.positive: List[RelLiteral] = []
        self.negative: List[RelLiteral] = []
        self.builtins: List[BuiltinLiteral] = []
        #: predicate -> body positions of its positive occurrences, the
        #: semi-naive delta variants of the rule.
        self.occurrences: Dict[str, Tuple[int, ...]] = {}
        for i, lit in enumerate(self.body):
            if isinstance(lit, BuiltinLiteral):
                self.builtins.append(lit)
            elif lit.negated:
                self.negative.append(lit)
            else:
                self.positive.append(lit)
                occs = self.occurrences.get(lit.predicate, ())
                self.occurrences[lit.predicate] = occs + (i,)
        self.aggregate = Aggregate(rule) if rule.has_aggregates else None
        self.head = rule.head if self.aggregate is None else self.aggregate.atom
        # One register per variable, whatever order the subgoals are
        # joined in.  A variable gets its register written only if the
        # rule reads it again (see Step.binds) — a valuation head reads
        # every named body variable.
        self.uses = Counter(
            var for part in (self.head, *rule.body) for var in part.variables()
        )
        self.slots: Dict[Variable, int] = {
            var: slot for slot, var in enumerate(self.uses)
        }
        #: (index, mask, negated) -> Step, and mask -> conclusion.
        self._compiled: Dict[Any, tuple] = {}
        #: mask -> program, and (mask, body position) -> delta program.
        self._programs: Dict[Any, tuple] = {}
        #: (index, negated) -> (Step, check, walk) of a trigger (see
        #: seed and walk).
        self._seeds: Dict[Tuple[int, bool], tuple] = {}

    def __getstate__(self):
        # A copy analyzes its own batch program: this one's holds the
        # term ids of this process's interner.
        kept = (name for name in self.__slots__ if name != "_batch")
        return None, {name: getattr(self, name) for name in kept}

    def step(self, idx: int, mask: int, negated: bool = False) -> Step:
        """Subgoal ``idx`` of ``positive`` (of ``negative`` when
        ``negated``) compiled against the registers in ``mask``."""
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

    def seed(
        self, idx: int, args: tuple, registry: BuiltinRegistry, negated: bool,
    ) -> Optional[Tuple[list, int, Optional[tuple]]]:
        """How a join starts from one fact: ``(registers, mask, check)``
        once subgoal ``idx`` of ``positive`` (of ``negative`` when
        ``negated``) matched the ground tuple ``args``, None when it
        does not match.  The subgoal binds only what the rule reads
        outside it, so the wildcards of a negated trigger stay free.

        A computed argument (``X + 1``) whose variables the rest of the
        body binds is not matched here — no number matches it before
        they are bound.  ``check`` lists those arguments,
        ``((position, expression), ...)`` (None when there are none),
        and a match survives only if :func:`seed_holds` finds them equal
        to ``args`` under its final registers (the distributed engines
        check it in :func:`repro.dist.plans.conclude`).  Raises what
        normalizing a structural pattern raises."""
        step, check, _walk = self._seeds.get((idx, negated)) or self._seeded(idx, negated)
        regs: List[Optional[Term]] = [None] * len(self.slots)
        structural = step.structural
        if structural is None:
            if len(args) != step.arity:
                return None
            if step.known or step.rechecks:
                want = [(pos, _eval_term(expr, regs, registry)) for pos, expr in step.known]
                if not _scan_rows((args,), step.arity, want, step.rechecks):
                    return None
            for pos, slot in step.binds:
                regs[slot] = args[pos]
        else:
            pattern = _structural_pattern(structural, regs, registry)
            matched = _structural_matches(pattern, (args,))
            if not matched:
                return None
            for var, slot in structural[2]:
                regs[slot] = matched[0][1][var]
        return regs, step.after, check

    def walk(self, idx: int) -> tuple:
        """How a join seeded from subgoal ``idx`` of ``positive`` goes
        on in a fixed order: ``(((index, Step), ...), conclusion)``, the
        other positive subgoals in ``positive`` order, each compiled
        against the registers bound before it, and :meth:`conclusion`
        of the complete match."""
        return (self._seeds.get((idx, False)) or self._seeded(idx, False))[2]

    def _seeded(self, idx: int, negated: bool) -> tuple:
        """:meth:`_seed_step`, kept for :meth:`seed` and :meth:`walk`."""
        found = self._seeds[idx, negated] = self._seed_step(idx, negated)
        return found

    def _seed_step(self, idx: int, negated: bool) -> tuple:
        """The trigger's :class:`Step` against no registers, its deferred
        computed arguments wildcarded, their check (see :meth:`seed`)
        and the fixed-order join that follows it (see :meth:`walk`)."""
        lit = (self.negative if negated else self.positive)[idx]
        # What the rest of the body binds: the other positive subgoals,
        # then the assignments they feed.
        bound: Set[Variable] = set()
        for i, other in enumerate(self.positive):
            if negated or i != idx:
                bound.update(other.variables())
        for bl in self.builtins:
            if bl.name == "=" and not bl.negated:
                left, right = bl.args
                for target, source in ((left, right), (right, left)):
                    if isinstance(target, Variable) and bound.issuperset(source.variables()):
                        bound.add(target)
        args, check = list(lit.atom.args), []
        for pos, arg in enumerate(args):
            if (isinstance(arg, FunctionTerm) and arg.functor in ARITH_FUNCTORS
                    and not arg.is_ground() and bound.issuperset(arg.variables())):
                check.append((pos, _compile_expr(arg, self.slots)))
                args[pos] = Variable(f"?{pos}")  # no rule names it: matches anything
        if check:
            lit = RelLiteral(Atom(lit.predicate, args), negated)
            step = _compile_literal(lit, 0, self.slots, self.uses)
            # The complete match must conclude without what the deferred
            # arguments would have bound (a built-in may read one before
            # the assignment that binds it); if not, match them here.
            try:
                return step, tuple(check), self._walk(idx, negated, step.after)
            except PlanError:
                pass
        step = self.step(idx, 0, negated)
        return step, None, self._walk(idx, negated, step.after)

    def _walk(self, idx: int, negated: bool, mask: int) -> tuple:
        """:meth:`walk` from the registers in ``mask`` (every positive
        subgoal after a negated trigger).  Raises PlanError when the
        complete match cannot conclude."""
        steps = []
        for i in range(len(self.positive)):
            if negated or i != idx:
                steps.append((i, self.step(i, mask)))
                mask = steps[-1][1].after
        return tuple(steps), self.conclusion(mask)

    def program(self, mask: int = 0) -> Tuple[tuple, Optional[tuple]]:
        """The rule as the central executors run it, subgoals in
        ``body`` order starting from the registers in ``mask``:
        ``((kind, step, index), ...)`` — ``_JOIN`` / ``_NOT`` with the
        :class:`Step` and its index in ``positive`` / ``negative``,
        ``_TEST`` with a built-in step — and the expressions of
        ``head``, None when it keeps an unbound variable (the rule is
        unsafe)."""
        found = self._programs.get(mask)
        if found is None:
            found = self._programs[mask] = self._compile(range(len(self.body)), mask)
        return found

    def delta_program(self, pos: int, mask: int = 0) -> Tuple[tuple, int]:
        """The ops of :meth:`program` with body position ``pos``, a
        positive subgoal, joined first (``order_body``'s ``lead``), and
        the depth it sits at: 0, or ``pos`` when the subgoal has a
        computed or structural argument, which keeps the body order.
        Cached next to :meth:`program`."""
        key = (mask, pos)
        found = self._programs.get(key)
        if found is None:
            lead = self.body[pos]
            if any(isinstance(arg, FunctionTerm) and not arg.is_ground()
                   for arg in lead.atom.args):
                found = self.program(mask)[0], pos
            else:
                # order_body hands back the body's own literal objects:
                # find each one's body position (the lead's is pos).
                order = [pos]
                for lit in order_body(self.rule, lead)[1:]:
                    order.append(next(
                        i for i, other in enumerate(self.body)
                        if other is lit and i not in order))
                found = self._compile(order, mask)[0], 0
            self._programs[key] = found
        return found

    def _compile(self, order, mask: int) -> Tuple[tuple, Optional[tuple]]:
        """:meth:`program` with the subgoals joined in ``order``, a
        sequence of body positions."""
        kinds, counts = [], [0, 0, 0]
        for lit in self.body:
            kind = (_TEST if isinstance(lit, BuiltinLiteral)
                    else _NOT if lit.negated else _JOIN)
            kinds.append((kind, counts[kind]))
            counts[kind] += 1
        ops = []
        for pos in order:
            kind, index = kinds[pos]
            if kind == _TEST:
                step = _compile_builtin(self.body[pos], _bound(self.slots, mask), self.slots)
                if step[0] == _ASSIGN:
                    mask |= 1 << step[1]
            else:
                step = self.step(index, mask, kind == _NOT)
                if kind == _JOIN:  # a negated subgoal binds nothing
                    mask = step.after
            ops.append((kind, step, index))
        try:
            bound = _bound(self.slots, mask)
            head = tuple(_compile_expr(a, bound) for a in self.head.args)
        except PlanError:
            head = None
        return tuple(ops), head

    def batch_program(self):
        """The vectorized form of this plan (see
        :func:`repro.core.vector.analyze_plan`), or None when the rule
        cannot be batch-executed.  Analyzed once, lazily — a benign
        race recomputes the same immutable value."""
        try:
            return self._batch
        except AttributeError:
            from .vector import analyze_plan

            program = self._batch = analyze_plan(self)
            return program

    def delta_step(self, delta_pred, delta_occurrence) -> int:
        """Body position of the ``delta_occurrence``-th positive
        occurrence of ``delta_pred`` — the subgoal that ranges over the
        delta tuples instead of the stored relation (the semi-naive
        rewriting) — or -1."""
        if delta_pred is not None and delta_occurrence is not None:
            occs = self.occurrences.get(delta_pred, ())
            if delta_occurrence < len(occs):
                return occs[delta_occurrence]
        return -1

    def execute(
        self, db, registry: BuiltinRegistry, regs: List[Optional[Term]],
        mask: int = 0, delta_pred: Optional[str] = None,
        delta_tuples=None, delta_occurrence: Optional[int] = None,
    ) -> Iterator[List[FactKey]]:
        """The register nested loop over :meth:`program`: yields once
        per body match, ``regs`` (one entry per slot, those of ``mask``
        bound by the caller) holding its bindings, the yielded list its
        facts, one per positive subgoal in ``positive`` order — the
        derivation.  Both lists are rewritten in place from one match to
        the next.  See :meth:`delta_step` for the delta arguments.
        A delta of fewer than :data:`_MIN_BATCH` rows — a maintainer's
        one updated fact, the tail of a semi-naive or XY stage — is
        joined first (:meth:`delta_program`), so the other subgoals are
        probed on what it binds instead of scanned.
        Raises what a built-in raises on the match that reaches it."""
        delta_step = self.delta_step(delta_pred, delta_occurrence)
        delta = delta_tuples or ()
        if delta_step >= 0 and len(delta) < _MIN_BATCH:
            ops, delta_step = self.delta_program(delta_step, mask)
        else:
            ops = self.program(mask)[0]
        used = [None] * len(self.positive)
        if not ops:
            yield used
            return
        # Per-execution caches: probe -> matched rows, plus the
        # transient hash index over the delta tuples.  stats counts
        # (candidate rows scanned, rows matched) for the selectivity
        # histogram.
        memo: Dict[object, object] = {}
        stats = [0, 0]
        iters = [None] * len(ops)
        last = len(ops) - 1
        depth, entering = 0, True
        try:
            while depth >= 0:
                kind, step, index = ops[depth]
                if entering:
                    iters[depth] = self._enter(
                        kind, step, depth, regs, db, registry, memo, stats,
                        delta if depth == delta_step else None,
                    )
                row = next(iters[depth], None)
                if row is None:
                    depth -= 1
                    entering = False
                    continue
                if kind == _JOIN:
                    for pos, slot in step.binds:
                        regs[slot] = row[pos]
                    used[index] = (step.pred, row)
                entering = depth < last
                if entering:
                    depth += 1
                else:
                    yield used
        finally:
            if _obs.enabled and stats[0]:
                _inst.join_selectivity.labels(rule=self.label).observe(
                    stats[1] / stats[0]
                )

    def _enter(self, kind, step, depth, regs, db, registry, memo, stats, delta):
        """An iterator over the ways body position ``depth`` holds under
        ``regs``: the rows a positive subgoal matches — stored ones, or
        those of ``delta`` for the delta occurrence; a structural
        subgoal binds its own variables row by row — and one empty row
        for a built-in or negated subgoal that holds."""
        if kind == _TEST:
            return iter(_HOLDS if run_builtin(step, regs, registry) else ())
        structural = step.structural
        if structural is None:
            probe = tuple(
                [_eval_term(expr, regs, registry) for _pos, expr in step.known]
            )
        else:
            probe = _structural_pattern(structural, regs, registry)
        key = (depth, probe)
        found = memo.get(key)
        if found is None:
            if structural is None:
                want = [(pos, t) for (pos, _expr), t in zip(step.known, probe)]
            else:
                want = [(pos, t) for pos, t in enumerate(probe) if t.is_ground()]
            if delta is None and len(want) == step.arity:
                # Every argument is fixed: a point lookup — one probe
                # (per distinct probe, thanks to the memo) that touches
                # no bucket.  On a hit, hand out the stored row, not the
                # probe that equals it (1 == 1.0, and derivations spell
                # their rows).
                rel = db.relation(step.pred)
                rel.probes += 1
                row = rel.stored(probe)
                found, scanned = (() if row is None else (row,)), 1
            else:
                if delta is None:
                    rel = db.relation(step.pred)
                    table = rel.lookup(want) if want else rel.scan()
                elif want:
                    # One bucket of a transient per-execution hash index
                    # of the delta tuples on the first fixed position.
                    pos, term = want[0]
                    index = memo.get(depth)
                    if index is None:
                        index = memo[depth] = {}
                        for row in delta:
                            if pos < len(row):
                                index.setdefault(row[pos], []).append(row)
                    table = index.get(term, ())
                else:
                    table = delta
                scanned = len(table)
                if structural is None:
                    found = _scan_rows(table, step.arity, want, step.rechecks)
                else:
                    found = _structural_matches(probe, table)
            memo[key] = found
            if kind == _JOIN:
                stats[0] += scanned
                stats[1] += len(found)
        if kind == _NOT:
            return iter(() if found else _HOLDS)
        if structural is not None:
            return _structural_rows(found, structural[2], regs)
        return iter(found)


#: Plans a :class:`PlanCache` keeps before it evicts the oldest.
_MAX_PLANS = 4096


class PlanCache:
    """Shared cache of compiled plans, keyed by (rule, rule_id).

    Rules are immutable and hashable, so the rule object itself is a
    sound cache key; ``rule_id`` is added because two textually equal
    rules with different ids must keep distinct derivation labels.

    The cache is thread-safe: one instance serves the whole process, so
    lookup/compile/insert runs under a lock (compilation is cheap
    relative to evaluation, so holding the lock across the compile
    keeps every miss compiled exactly once).
    """

    def __init__(self):
        self._plans: Dict[object, CompiledPlan] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        _inst.own(self)

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, rule: Rule) -> CompiledPlan:
        key = (rule, rule.rule_id)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                return plan
            self.misses += 1
            plan = CompiledPlan(rule)
            if len(self._plans) >= _MAX_PLANS:
                # FIFO eviction: drop the oldest insertion.
                self._plans.pop(next(iter(self._plans)))
            self._plans[key] = plan
            return plan

    def tallies(self):
        """Folded telemetry counts (:func:`repro.obs.instrument.own`)."""
        yield _inst.plan_cache_hits, (), self.hits
        yield _inst.plan_cache_misses, (), self.misses

    def clear(self) -> None:
        _inst.catch_up(self, zero=True)  # telemetry keeps what it saw
        with self._lock:
            self._plans.clear()
        self.hits = 0
        self.misses = 0


#: The process-wide cache every evaluator compiles through.
GLOBAL_PLAN_CACHE = PlanCache()


# ---------------------------------------------------------------------------
# The oracle hook
# ---------------------------------------------------------------------------
#
# Production evaluation is one path: compiled plans, vectorizable
# firings on the batch kernels of :mod:`repro.core.vector` and the rest
# on the tuple executor above, chosen per firing from the rule and the
# size of its delta.  The original recursive enumerator survives as the
# reference oracle the differential tests and the E17 baseline compare
# against; this flag is the only switch, read by ``fire_rule`` in
# :mod:`repro.core.eval`.

_seed = False


def seed_mode() -> bool:
    """True while evaluation is pinned to the seed recursive engine."""
    return _seed


@contextmanager
def seed_engine():
    """Route evaluation through the original recursive enumerator with
    eager per-rule materialization — the pre-plan reference engine, kept
    for differential tests and benchmark baselines."""
    global _seed
    previous = _seed
    _seed = True
    try:
        yield
    finally:
        _seed = previous
