"""Compiled rule plans and the selectivity-aware join executor.

Section II-B frames the framework's optimization story as compilation:
a deductive program is analyzed *once* and turned into an efficient
evaluation plan, rather than re-planned on every rule firing.  This
module is that layer for the centralized engine:

* :func:`order_body` — the greedy subgoal ordering (moved here from
  ``eval.py``; still re-exported there for compatibility);
* :class:`CompiledPlan` — an immutable per-rule plan: the body ordering
  computed once, each literal argument classified at compile time as
  constant / bare variable / complex term, the positive occurrences of
  every predicate precomputed for the semi-naive delta rewriting, and
  an iterative (explicit-stack) join executor that replaces the
  per-call recursive generator the seed engine used;
* :class:`PlanCache` — the shared per-program plan cache the
  evaluators (`SemiNaiveEvaluator`, `XYEvaluator`,
  `IncrementalEvaluator`) all compile through, with hit/miss counters;
* :func:`seed_engine` — a context manager that routes evaluation
  through the original recursive enumerator with eager materialization,
  kept as the reference baseline for differential tests and the E17
  benchmark.

The executor also performs *probe memoization*: within one rule
execution, identical probe patterns against the same subgoal reuse the
matched-row list instead of re-probing the relation index, and the
semi-naive delta occurrence is joined through a transient per-execution
hash index instead of a linear scan per outer row.  Both are safe
because a relation only ever grows during evaluation and anything a
snapshot misses is re-derived from the next round's delta.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
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
from .ast import BuiltinLiteral, Literal, RelLiteral, Rule
from .builtins import (
    BuiltinRegistry,
    DEFAULT_REGISTRY,
    eval_builtin,
    normalize_partial,
)
from .derivations import FactKey
from .errors import ProgramError
from .terms import Constant, FunctionTerm, Substitution, Term, Variable
from .unify import match_sequences

ArgsTuple = Tuple[Term, ...]

_EMPTY_SUBST = Substitution()


def rule_label(rule: Rule) -> str:
    """Stable telemetry label for a rule: head predicate plus id."""
    if rule.rule_id is not None:
        return f"{rule.head.predicate}#r{rule.rule_id}"
    return rule.head.predicate


# ---------------------------------------------------------------------------
# Body ordering (absorbed from eval.py)
# ---------------------------------------------------------------------------


def order_body(rule: Rule) -> List[Literal]:
    """Order subgoals for left-to-right evaluation.

    Greedy: at each step emit any built-in or negated subgoal whose
    variables are already bound (built-ins as early as possible — they
    are cheap local filters), otherwise the next positive relational
    subgoal in textual order.
    """
    pending = list(rule.body)
    ordered: List[Literal] = []
    bound: Set[Variable] = set()

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

    while pending:
        for lit in pending:
            if ready(lit):
                ordered.append(lit)
                pending.remove(lit)
                bound.update(v for v in lit.variables())
                break
        else:
            for lit in pending:
                if isinstance(lit, RelLiteral) and not lit.negated:
                    ordered.append(lit)
                    pending.remove(lit)
                    bound.update(lit.variables())
                    break
            else:
                raise ProgramError(
                    f"cannot order body of rule {rule!r}: unbound built-in "
                    "or negated subgoal (rule is unsafe?)"
                )
    return ordered


# ---------------------------------------------------------------------------
# Compiled steps
# ---------------------------------------------------------------------------

#: Compile-time argument classes: a ground constant (pre-normalized when
#: registry-independent), a bare variable (substitute, normalize only if
#: the binding is a function term), or a complex term (substitute +
#: normalize every time, exactly like the seed enumerator).
_CONST, _VAR, _COMPLEX = 0, 1, 2


class BuiltinStep:
    """A built-in subgoal: evaluated through :func:`eval_builtin`."""

    __slots__ = ("literal",)

    def __init__(self, literal: BuiltinLiteral):
        self.literal = literal


class RelStep:
    """A relational subgoal with its argument template precompiled."""

    __slots__ = ("literal", "predicate", "negated", "arg_plan")

    def __init__(self, literal: RelLiteral):
        self.literal = literal
        self.predicate = literal.predicate
        self.negated = literal.negated
        plan = []
        for arg in literal.atom.args:
            if isinstance(arg, Constant):
                # Plain constants normalize to themselves regardless of
                # the registry, so fold them once at compile time.
                plan.append((_CONST, normalize_partial(arg)))
            elif isinstance(arg, Variable):
                plan.append((_VAR, arg))
            else:
                plan.append((_COMPLEX, arg))
        self.arg_plan: Tuple[Tuple[int, Term], ...] = tuple(plan)

    def pattern(self, subst: Substitution, registry: BuiltinRegistry) -> ArgsTuple:
        """Instantiate the probe pattern under ``subst`` (normalized the
        same way the seed enumerator normalized it)."""
        out = []
        for kind, payload in self.arg_plan:
            if kind == _CONST:
                out.append(payload)
            elif kind == _VAR:
                term = payload.substitute(subst)
                if isinstance(term, FunctionTerm):
                    term = normalize_partial(term, registry)
                out.append(term)
            else:
                out.append(normalize_partial(payload.substitute(subst), registry))
        return tuple(out)


# ---------------------------------------------------------------------------
# The compiled plan
# ---------------------------------------------------------------------------

#: Sentinel distinguishing "batch analysis not run yet" from "analyzed:
#: not vectorizable" (None).
_BATCH_UNSET = object()


class CompiledPlan:
    """An immutable evaluation plan for one rule.

    The body ordering, argument templates and delta-occurrence positions
    are computed once at compile time; :meth:`execute` runs the join
    with an explicit stack (no recursion) and per-execution probe
    memoization.
    """

    __slots__ = ("rule", "steps", "occurrences", "label", "_batch")

    def __init__(self, rule: Rule, steps: Sequence[object],
                 occurrences: Dict[str, Tuple[int, ...]]):
        self.rule = rule
        self.steps = tuple(steps)
        self.occurrences = occurrences
        self.label = rule_label(rule)
        self._batch = _BATCH_UNSET

    def occurrence_count(self, predicate: str) -> int:
        """Positive occurrences of ``predicate`` in the ordered body —
        the number of semi-naive delta variants of this rule."""
        return len(self.occurrences.get(predicate, ()))

    def batch_program(self):
        """The vectorized form of this plan (see
        :func:`repro.core.vector.analyze_plan`), or None when the rule
        cannot be batch-executed.  Analyzed once, lazily — a benign
        race recomputes the same immutable value."""
        program = self._batch
        if program is _BATCH_UNSET:
            from .vector import analyze_plan

            program = self._batch = analyze_plan(self)
        return program

    # -- execution -------------------------------------------------------

    def execute(
        self,
        db,
        registry: BuiltinRegistry,
        delta_pred: Optional[str] = None,
        delta_tuples: Optional[Set[ArgsTuple]] = None,
        delta_occurrence: Optional[int] = None,
        initial_subst: Optional[Substitution] = None,
    ) -> Iterator[Tuple[Substitution, List[FactKey]]]:
        """Enumerate satisfying substitutions of the rule body.

        Same contract as the seed ``enumerate_rule``: when
        ``delta_pred`` is given, the ``delta_occurrence``-th positive
        occurrence of that predicate ranges over ``delta_tuples``
        instead of the stored relation.  Yields the substitution and the
        list of positive facts used (the derivation).
        """
        steps = self.steps
        n = len(steps)
        base = Substitution(initial_subst) if initial_subst else Substitution()
        if n == 0:
            yield base, []
            return
        delta_step = -1
        if delta_pred is not None and delta_occurrence is not None:
            occs = self.occurrences.get(delta_pred, ())
            if delta_occurrence < len(occs):
                delta_step = occs[delta_occurrence]
        # Per-execution caches: probe-pattern -> matched rows, plus the
        # transient hash index over the delta tuples.  stats counts
        # (candidate rows scanned, rows matched) for the selectivity
        # histogram.
        memo: Dict[object, object] = {}
        stats = [0, 0]
        used: List[FactKey] = []
        iters: List[Optional[Iterator]] = [None] * n
        pushed = [False] * n
        depth = 0
        last = n - 1
        iters[0] = self._step_results(
            0, base, db, registry, memo, delta_step, delta_tuples, stats
        )
        try:
            while depth >= 0:
                item = next(iters[depth], None)
                if pushed[depth]:
                    used.pop()
                    pushed[depth] = False
                if item is None:
                    iters[depth] = None
                    depth -= 1
                    continue
                s2, fact = item
                if fact is not None:
                    used.append(fact)
                    pushed[depth] = True
                if depth == last:
                    yield s2, list(used)
                    continue
                depth += 1
                iters[depth] = self._step_results(
                    depth, s2, db, registry, memo, delta_step, delta_tuples, stats
                )
                pushed[depth] = False
        finally:
            if _obs.enabled and stats[0]:
                _inst.join_selectivity.labels(rule=self.label).observe(
                    stats[1] / stats[0]
                )

    def _step_results(
        self, idx, subst, db, registry, memo, delta_step, delta_tuples, stats
    ) -> Iterator[Tuple[Substitution, Optional[FactKey]]]:
        step = self.steps[idx]
        if type(step) is BuiltinStep:
            return (
                (s2, None) for s2 in eval_builtin(step.literal, subst, registry)
            )
        pattern = step.pattern(subst, registry)
        if step.negated:
            return self._negation_result(step, idx, pattern, subst, db, memo)
        if idx == delta_step:
            matches = self._delta_matches(idx, pattern, delta_tuples, memo, stats)
        else:
            matches = self._relation_matches(step, idx, pattern, db, memo, stats)
        return self._bind_matches(matches, subst, step.predicate)

    @staticmethod
    def _bind_matches(matches, subst, predicate):
        for row, bindings in matches:
            s2 = Substitution(subst)
            if bindings:
                s2.update(bindings)
            yield s2, (predicate, row)

    def _relation_matches(self, step, idx, pattern, db, memo, stats):
        """Matched (row, bindings) pairs for a positive stored subgoal,
        memoized per probe pattern and snapshotted (safe to consume
        while the caller streams new facts into the relation)."""
        key = (idx, pattern)
        cached = memo.get(key)
        if cached is not None:
            return cached
        rel = db.relation(step.predicate)
        bound = [(pos, t) for pos, t in enumerate(pattern) if t.is_ground()]
        if len(bound) == len(pattern):
            # Fully ground: a point lookup — counts as one probe (per
            # distinct pattern, thanks to the memo) but touches no bucket.
            rel.probes += 1
            out: Tuple = ((pattern, None),) if pattern in rel else ()
            stats[0] += 1
            stats[1] += len(out)
        else:
            if bound:
                rows = rel.lookup(bound)
            else:
                rows = rel.scan()
            matched = []
            for row in rows:
                bindings = match_sequences(pattern, row, _EMPTY_SUBST)
                if bindings is not None:
                    matched.append((row, bindings))
            stats[0] += len(rows)
            stats[1] += len(matched)
            out = tuple(matched)
        memo[key] = out
        return out

    def _delta_matches(self, idx, pattern, delta_tuples, memo, stats):
        """Matched (row, bindings) pairs against the delta set, joined
        through a transient per-execution hash index on the first
        runtime-ground pattern position."""
        key = ("d", idx, pattern)
        cached = memo.get(key)
        if cached is not None:
            return cached
        rows: Iterable[ArgsTuple] = delta_tuples or ()
        probe_pos = -1
        for pos, term in enumerate(pattern):
            if term.is_ground():
                probe_pos = pos
                break
        if probe_pos >= 0:
            index_key = ("di", idx, probe_pos)
            index = memo.get(index_key)
            if index is None:
                index = {}
                for row in rows:
                    if probe_pos < len(row):
                        index.setdefault(row[probe_pos], []).append(row)
                memo[index_key] = index
            rows = index.get(pattern[probe_pos], ())
        matched = []
        scanned = 0
        for row in rows:
            scanned += 1
            bindings = match_sequences(pattern, row, _EMPTY_SUBST)
            if bindings is not None:
                matched.append((row, bindings))
        stats[0] += scanned
        stats[1] += len(matched)
        out = tuple(matched)
        memo[key] = out
        return out

    def _negation_result(self, step, idx, pattern, subst, db, memo):
        key = ("n", idx, pattern)
        exists = memo.get(key)
        if exists is None:
            rel = db.relation(step.predicate)
            bound = [(pos, t) for pos, t in enumerate(pattern) if t.is_ground()]
            if len(bound) == len(pattern):
                rel.probes += 1
                exists = pattern in rel
            elif bound:
                exists = any(
                    match_sequences(pattern, row, _EMPTY_SUBST) is not None
                    for row in rel.lookup(bound)
                )
            else:
                exists = any(
                    match_sequences(pattern, row, _EMPTY_SUBST) is not None
                    for row in rel.scan()
                )
            memo[key] = exists
        if exists:
            return iter(())
        return iter(((subst, None),))


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def compile_rule(rule: Rule) -> CompiledPlan:
    """Compile ``rule`` into a :class:`CompiledPlan`: the greedy
    :func:`order_body` interleaving of subgoals, built-ins and
    negation, each step classified once."""
    ordered = order_body(rule)
    steps: List[object] = []
    occurrences: Dict[str, List[int]] = {}
    for i, lit in enumerate(ordered):
        if isinstance(lit, BuiltinLiteral):
            steps.append(BuiltinStep(lit))
        else:
            assert isinstance(lit, RelLiteral)
            steps.append(RelStep(lit))
            if not lit.negated:
                occurrences.setdefault(lit.predicate, []).append(i)
    return CompiledPlan(
        rule, steps, {p: tuple(ix) for p, ix in occurrences.items()}
    )


#: Plans a :class:`PlanCache` keeps before it evicts the oldest.
_MAX_PLANS = 4096


class PlanCache:
    """Shared cache of compiled plans, keyed by (rule, rule_id).

    Rules are immutable and hashable, so the rule object itself is a
    sound cache key; ``rule_id`` is added because two textually equal
    rules with different ids must keep distinct derivation labels.

    The cache is thread-safe: one instance serves the whole process, so
    lookup/compile/insert runs under a lock (compilation is cheap
    relative to evaluation, so holding the lock across ``compile_rule``
    keeps every miss compiled exactly once).
    """

    def __init__(self):
        self._plans: Dict[object, CompiledPlan] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, rule: Rule) -> CompiledPlan:
        key = (rule, rule.rule_id)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                if _obs.enabled:
                    _inst.plan_cache_hits.inc()
                return plan
            self.misses += 1
            if _obs.enabled:
                _inst.plan_cache_misses.inc()
            plan = compile_rule(rule)
            if len(self._plans) >= _MAX_PLANS:
                # FIFO eviction: drop the oldest insertion.
                self._plans.pop(next(iter(self._plans)))
            self._plans[key] = plan
            return plan

    def clear(self) -> None:
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
# against; this flag is the only switch, read by ``enumerate_rule`` and
# ``fire_rule`` in :mod:`repro.core.eval`.

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
