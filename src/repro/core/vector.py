"""Batch-vectorized execution of compiled rule plans.

The tuple-at-a-time executor in :mod:`repro.core.plan` enumerates one
binding at a time through Python-level probe loops.  This module runs
the *same* compiled steps (:meth:`CompiledPlan.program
<repro.core.plan.CompiledPlan.program>`) over whole batches at once: the
current set of partial bindings is a struct-of-arrays (one int64 id
column per bound register, ids from
:data:`repro.core.columnar.GLOBAL_INTERNER`), and every step — equality
join, negation, builtin comparison/assignment — is a numpy kernel over
those columns.  Joins probe a relation through a cached
``(sorted ids, row order)`` snapshot per (relation, position, version):
``searchsorted`` yields per-batch-row match ranges which are expanded
into (batch row, relation row) pairs without a Python loop.

A rule is *vectorizable* when every step fits the supported shapes:

* positive/negated relational subgoals whose arguments are constants,
  bare variables or arithmetic over bound variables (``hp(Y, D + 1)``:
  the computed argument becomes a column, see :func:`analyze_plan`), but
  no nested function terms in the pattern;
* builtin comparisons / equality tests / ``=`` assignments over
  arithmetic expression trees of numeric constants and bound variables;
* head arguments that are constants, ground terms, bound variables, or
  arithmetic expressions.

:func:`analyze_plan` decides this once per plan, from the step and
expression tuples the rule compiler produced, and returns None otherwise
— the caller then uses the tuple executor.  Vectorizable rules can
still bail *at runtime* (:class:`_Fallback`): non-numeric ids reaching
arithmetic, integer results at or beyond float64's exact range (2**53),
``//``/``mod`` operands at or above 2**25, zero divisors, ragged
relations.  Fallback happens before any result is emitted and before
any probe counter is committed, so the tuple executor re-runs the call
with identical semantics (including raising the same errors Python
arithmetic would).

A call's firings leave as one
:class:`~repro.core.derivations.FiringBatch` in id space: one id row
per distinct head (batches large enough to dedup, see
:func:`_group_heads`), which the relation matches by its ids and spells
with the interner's canonical term instances only when it is new — equal
(as terms) to what :func:`repro.core.eval.ground_head` builds row by row
— and, per positive subgoal, the relation and the array of its rows each
firing matched, from which the batch builds records only when they are
read.  A delta is a list of its relation's row numbers
(:class:`_DeltaSource`), translated back to them with one fancy index.
"""

from __future__ import annotations

import sys
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from ..obs import instrument as _inst
from ..obs import state as _obs
from .builtins import BuiltinRegistry, eval_term, value_to_term
from .columnar import (
    F_FN,
    F_INT,
    F_NUM,
    GLOBAL_INTERNER,
    MAX_EXACT_INT,
    SMALL_INT,
)
from .derivations import FiringBatch
from .plan import _ARITH, _ASSIGN, _CALL, _CMP, _NOT, _SLOT, _TEST, _VALUE

#: Vectorization coverage, always counted (cheap): tests and benchmarks
#: read it directly, and three obs families catch up from it.
VECTOR_STATS = {
    "batch_calls": 0,
    "batch_rows": 0,
    "vectorized_steps": 0,
    "fallback_steps": 0,
    "emit_dedup_rows": 0,
}


def tallies():
    """Folded telemetry counts (:func:`repro.obs.instrument.own`); this
    module is their owner."""
    yield _inst.batch_rows, (), VECTOR_STATS["batch_rows"]
    yield _inst.vectorized_steps, (), VECTOR_STATS["vectorized_steps"]
    yield _inst.fallback_steps, (), VECTOR_STATS["fallback_steps"]


_inst.own(sys.modules[__name__])

#: Result batches below this row count skip the id-space head dedup —
#: np.unique's sort costs more than the saved tuple materializations.
_EMIT_DEDUP_MIN_ROWS = 16


class _Fallback(Exception):
    """Raised when a vectorized call must re-run on the tuple executor."""


# ---------------------------------------------------------------------------
# Compile-time analysis
# ---------------------------------------------------------------------------


class _JoinOp(NamedTuple):
    """A relational subgoal's :class:`~repro.core.plan.Step`, its
    constants interned."""

    step_idx: int
    predicate: str
    negated: bool
    arity: int
    #: merged probe columns, pattern order: ("c", pos, id) for
    #: constants, ("v", pos, slot) for already-bound variables and
    #: computed arguments.
    ground_specs: list
    #: (pos, slot) — the step's ``binds``.
    out_specs: tuple
    #: (pos, first_pos) — the step's ``rechecks``: the relation row
    #: must carry equal ids at both positions.
    dup_specs: tuple


class BatchProgram:
    """The vectorized form of one CompiledPlan: a :class:`_JoinOp` per
    relational subgoal, the plan's own ``_ASSIGN`` / ``_CMP`` step per
    built-in, and the head specs."""

    __slots__ = ("ops", "head")

    def __init__(self, ops, head):
        self.ops = ops
        self.head = head


def _vectorizes(expr: tuple) -> bool:
    """Can :func:`_eval_expr` run the compiled expression: arithmetic
    over registers and numeric constants inside float64's exact range?"""
    kind = expr[0]
    if kind == _SLOT:
        return True
    if kind == _VALUE:
        v = expr[1].value
        return (
            isinstance(v, (int, float))
            and not isinstance(v, bool)
            and v == v
            and abs(v) <= MAX_EXACT_INT
        )
    if kind == _ARITH:
        functor, args = expr[1], expr[2]
        return len(args) == (1 if functor in ("abs", "neg") else 2) and all(
            map(_vectorizes, args)
        )
    return False  # a term that goes through eval_term


def analyze_plan(plan) -> Optional[BatchProgram]:
    """The BatchProgram for ``plan``, or None when any step (or the
    head) falls outside the vectorizable shapes.

    A subgoal's computed argument (``D + 1``) becomes a column: an
    ``_ASSIGN`` op right before the subgoal's op writes it to a scratch
    register past the plan's slots, interned as a head expression is
    (so ``3.0`` finds a stored ``3``), and the probe reads that register
    like a bound variable."""
    rule = plan.rule
    steps, head_exprs = plan.program()
    if rule.has_aggregates or head_exprs is None:
        return None
    ops: List[object] = []
    scratches = 0
    for step_idx, (kind, step, _index) in enumerate(steps):
        if kind == _TEST:
            # The kernels run assignments and comparisons; a registered
            # predicate is called row by row.
            exprs = (step[2],) if step[0] == _ASSIGN else step[3]
            if step[0] == _CALL or not all(map(_vectorizes, exprs)):
                return None
            ops.append(step)
            continue
        if step.structural is not None:
            return None  # nested term in the pattern
        ground: List[tuple] = []
        for pos, expr in step.known:
            if expr[0] == _VALUE:
                ground.append(("c", pos, GLOBAL_INTERNER.intern(expr[1])))
            elif expr[0] == _SLOT:
                ground.append(("v", pos, expr[1]))
            elif _vectorizes(expr):
                scratch = len(plan.slots) + scratches
                scratches += 1
                ops.append((_ASSIGN, scratch, expr))
                ground.append(("v", pos, scratch))
            else:
                return None  # a term that goes through eval_term
        # In a negated subgoal an unbound variable is a free
        # (unconstrained) position — order_body only admits anonymous
        # ones there.
        ops.append(_JoinOp(
            step_idx, step.pred, kind == _NOT, step.arity, ground,
            () if kind == _NOT else step.binds, step.rechecks,
        ))
    head: List[tuple] = []
    for arg, expr in zip(rule.head.args, head_exprs):
        if expr[0] == _SLOT:
            head.append(("var", expr[1]))
        elif expr[0] == _VALUE:
            head.append(("const", GLOBAL_INTERNER.intern(arg)))
        elif arg.is_ground():
            # Ground function term: may involve registered functions,
            # so normalize at execution time with the live registry.
            head.append(("gconst", arg))
        elif _vectorizes(expr):
            head.append(("expr", expr))
        else:
            return None
    return BatchProgram(tuple(ops), tuple(head))


# ---------------------------------------------------------------------------
# Runtime sources
# ---------------------------------------------------------------------------


class _DeltaSource:
    """Columnar view of one call's semi-naive delta: rows of the stored
    relation by row number, each id column sliced once.  Batch row ``i``
    is relation row ``rows[i]``.  It answers the names of
    :class:`~repro.core.eval.Relation`'s columnar view the kernels read,
    so a kernel takes either."""

    __slots__ = ("rel", "rows", "_cols", "_sorted")

    def __init__(self, rel, rows):
        self.rel = rel
        self.rows = rows
        self._cols: Dict[int, np.ndarray] = {}
        self._sorted: Dict[int, tuple] = {}

    @property
    def ragged(self):
        return self.rel.ragged

    @property
    def arity(self):
        return self.rel.arity

    def __len__(self):
        return len(self.rows)

    def np_column(self, pos):
        col = self._cols.get(pos)
        if col is None:
            col = self._cols[pos] = self.rel.ids_at(pos, self.rows)
        return col

    def live_rows(self):
        return np.arange(len(self.rows), dtype=np.int64)

    def sorted_probe(self, pos):
        cached = self._sorted.get(pos)
        if cached is None:
            vals = self.np_column(pos)
            order = np.argsort(vals, kind="stable")
            cached = (vals[order], order.astype(np.int64))
            self._sorted[pos] = cached
        return cached

    def relation_rows(self, batch_rows):
        """The relation's row numbers of the batch rows ``batch_rows``."""
        return np.asarray(self.rows, dtype=np.int64)[batch_rows]


# ---------------------------------------------------------------------------
# Runtime execution
# ---------------------------------------------------------------------------


class _State:
    __slots__ = ("n", "cols", "prov", "stats")

    def __init__(self):
        self.n = 1
        #: register slot -> id column
        self.cols: Dict[int, np.ndarray] = {}
        #: one [source, row-number array] per positive join, in step
        #: order — the provenance columns.
        self.prov: List[list] = []
        self.stats = [0, 0]  # (candidates scanned, rows matched)

    def gather(self, sel):
        """Keep only the batch rows selected by index array ``sel``."""
        self.n = len(sel)
        cols = self.cols
        for v in cols:
            cols[v] = cols[v][sel]
        for entry in self.prov:
            entry[1] = entry[1][sel]


def _check_int_range(res):
    # An exact result above 2**53 may round down onto 2**53 itself, so
    # that bound is refused too.
    if np.any(np.abs(res) >= MAX_EXACT_INT):
        raise _Fallback


def _eval_expr(expr, state):
    """Evaluate a compiled expression (``_VALUE`` / ``_SLOT`` /
    ``_ARITH``, see :mod:`repro.core.plan`) to (float64 array-or-scalar,
    is_int).

    is_int mirrors Python's type propagation: int op int stays int
    (except ``/``), anything touching a float is float.  All integer
    intermediates are checked against float64's exact range.
    """
    kind = expr[0]
    if kind == _VALUE:
        v = expr[1].value
        return float(v), isinstance(v, int)
    if kind == _SLOT:
        ids = state.cols[expr[1]]
        flags = GLOBAL_INTERNER.flags_of(ids)
        if not (flags & F_NUM).all():
            raise _Fallback
        return GLOBAL_INTERNER.nums_of(ids), bool((flags & F_INT).all())
    f = expr[1]
    children = expr[2]
    a, a_int = _eval_expr(children[0], state)
    if f == "abs":
        return np.abs(a), a_int
    if f == "neg":
        return -a, a_int
    b, b_int = _eval_expr(children[1], state)
    res_int = a_int and b_int
    if f == "+":
        res = a + b
    elif f == "-":
        res = a - b
    elif f == "*":
        res = a * b
    elif f == "/":
        if np.any(b == 0.0):
            raise _Fallback  # tuple path raises ZeroDivisionError
        return a / b, False
    elif f in ("//", "mod"):
        # Exact only for small integers; everything else goes back to
        # Python arithmetic (floor/round edge cases on floats, big ints).
        if not res_int:
            raise _Fallback
        if np.any(np.abs(a) >= SMALL_INT) or np.any(np.abs(b) >= SMALL_INT):
            raise _Fallback
        if np.any(b == 0.0):
            raise _Fallback
        return (np.floor_divide(a, b) if f == "//" else np.mod(a, b)), True
    elif f == "min":
        res = np.minimum(a, b)
    elif f == "max":
        res = np.maximum(a, b)
    else:  # pragma: no cover - analysis admits only the functors above
        raise _Fallback
    if res_int:
        _check_int_range(res)
    return res, res_int


def _count(counters, rel, scans):
    probes_scans = counters.get(id(rel))
    if probes_scans is None:
        probes_scans = counters[id(rel)] = [rel, 0, 0]
    probes_scans[2 if scans else 1] += 1


def _probe_expand(op, src, state):
    """Expand the batch against ``src`` along the ground columns:
    returns (batch row indexes, relation row numbers, candidate count)."""
    specs = op.ground_specs
    kind, pos, payload = specs[0]
    sorted_vals, sorted_rows = src.sorted_probe(pos)
    if kind == "c":
        lo = np.searchsorted(sorted_vals, payload, side="left")
        hi = np.searchsorted(sorted_vals, payload, side="right")
        rows1 = sorted_rows[lo:hi]
        n, m = state.n, hi - lo
        batch_idx = np.repeat(np.arange(n, dtype=np.int64), m)
        rel_rows = np.tile(rows1, n)
        total = n * m
    else:
        keys = state.cols[payload]
        lo = np.searchsorted(sorted_vals, keys, side="left")
        hi = np.searchsorted(sorted_vals, keys, side="right")
        counts = hi - lo
        total = int(counts.sum())
        batch_idx = np.repeat(np.arange(state.n, dtype=np.int64), counts)
        starts = np.repeat(lo, counts)
        cum = np.cumsum(counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
        rel_rows = sorted_rows[starts + offsets]
    mask = None
    for kind2, pos2, payload2 in specs[1:]:
        col = src.np_column(pos2)[rel_rows]
        want = payload2 if kind2 == "c" else state.cols[payload2][batch_idx]
        part = col == want
        mask = part if mask is None else (mask & part)
    for pos2, first_pos in op.dup_specs:
        part = src.np_column(pos2)[rel_rows] == src.np_column(first_pos)[rel_rows]
        mask = part if mask is None else (mask & part)
    if mask is not None:
        sel = np.nonzero(mask)[0]
        batch_idx = batch_idx[sel]
        rel_rows = rel_rows[sel]
    return batch_idx, rel_rows, total


def _exec_join(op, src, state, counters, is_delta):
    if src.ragged:
        raise _Fallback
    if not len(src) or src.arity != op.arity:
        state.n = 0
        return
    if op.ground_specs:
        if not is_delta:
            _count(counters, src, scans=False)
        batch_idx, rel_rows, total = _probe_expand(op, src, state)
    else:
        if not is_delta:
            _count(counters, src, scans=True)
        live = src.live_rows()
        if op.dup_specs:
            keep = np.ones(len(live), dtype=bool)
            for pos, first_pos in op.dup_specs:
                keep &= src.np_column(pos)[live] == src.np_column(first_pos)[live]
            live = live[np.nonzero(keep)[0]]
        n, m = state.n, len(live)
        batch_idx = np.repeat(np.arange(n, dtype=np.int64), m)
        rel_rows = np.tile(live, n)
        total = n * m
    state.stats[0] += total
    state.stats[1] += len(batch_idx)
    state.gather(batch_idx)
    for pos, slot in op.out_specs:
        state.cols[slot] = src.np_column(pos)[rel_rows]
    state.prov.append([src, rel_rows])
    state.n = len(rel_rows)


def _exec_negation(op, src, state, counters, is_delta):
    if src.ragged:
        raise _Fallback
    if not len(src) or src.arity != op.arity:
        return  # nothing can match: every batch row survives
    if not op.ground_specs:
        if not is_delta:
            _count(counters, src, scans=True)
        exists = True
        if op.dup_specs:
            live = src.live_rows()
            match = np.ones(len(live), dtype=bool)
            for pos, first_pos in op.dup_specs:
                match &= src.np_column(pos)[live] == src.np_column(first_pos)[live]
            exists = bool(match.any())
        if exists:
            state.n = 0
        return
    if not is_delta:
        _count(counters, src, scans=False)
    batch_idx, _rel_rows, _total = _probe_expand(op, src, state)
    matched = np.zeros(state.n, dtype=bool)
    matched[batch_idx] = True
    keep = np.nonzero(~matched)[0]
    if len(keep) != state.n:
        state.gather(keep)


def _exec_test(op, state):
    _kind, name, negated, (left, right) = op
    left, _li = _eval_expr(left, state)
    right, _ri = _eval_expr(right, state)
    if name == "=":
        mask = left == right
    elif name == "!=":
        mask = left != right
    elif name == "<":
        mask = left < right
    elif name == "<=":
        mask = left <= right
    elif name == ">":
        mask = left > right
    else:
        mask = left >= right
    if negated:
        mask = np.logical_not(mask)
    if np.ndim(mask) == 0:
        if not bool(mask):
            state.n = 0
        return
    sel = np.nonzero(mask)[0]
    if len(sel) != state.n:
        state.gather(sel)


def _exec_assign(op, state):
    _kind, slot, expr = op
    values, is_int = _eval_expr(expr, state)
    state.cols[slot] = GLOBAL_INTERNER.intern_numeric(values, is_int, state.n)


#: Packed head keys stay below this bound, so a key times the next
#: column's width plus an id never overflows int64.
_PACK_LIMIT = 2 ** 62


def _group_heads(arrays, n):
    """Group the batch's firings by head row: (each firing's group, the
    first firing of every group), groups in first-firing order.

    A join often derives one head through many body matches; since
    every column is interned, equal heads are equal id rows.  The rows
    are packed into one int64 key, a mixed radix over the columns (ids
    are non-negative), and one 1-d ``np.unique`` finds them — each
    distinct head is matched against its relation once.  When the next
    column would carry the key past ``_PACK_LIMIT``, the key is first
    re-densified to its rank among the distinct keys so far.  Batches
    under ``_EMIT_DEDUP_MIN_ROWS`` skip the sort (it costs more than it
    saves) and make every firing a group of its own.
    """
    if not arrays:  # a constant head: one for every firing
        return np.zeros(n, dtype=np.int64), np.zeros(1, dtype=np.int64)
    if n < _EMIT_DEDUP_MIN_ROWS:
        return np.arange(n), np.arange(n)
    key = arrays[0]
    span = int(key.max()) + 1
    for col in arrays[1:]:
        width = int(col.max()) + 1
        if span * width > _PACK_LIMIT:
            distinct, key = np.unique(key, return_inverse=True)
            span = len(distinct)
        key = key * width + col
        span *= width
    _uniq, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    VECTOR_STATS["emit_dedup_rows"] += n - len(order)
    return rank[inverse], first[order]


def _emit(rule_id, prog, state, registry) -> FiringBatch:
    """The final batch as a :class:`FiringBatch`: the heads
    (:func:`_group_heads`) as id rows, built a column at a time, and
    each positive join's matched rows as its relation's row numbers.
    """
    interner = GLOBAL_INTERNER
    n = state.n
    id_cols: List[object] = []  # per head position: int id or id array
    for spec in prog.head:
        kind = spec[0]
        if kind == "var":
            ids = state.cols[spec[1]]
            if (interner.flags_of(ids) & F_FN).any():
                ids = interner.normalize_ids(ids, registry)
            id_cols.append(ids)
        elif kind == "const":
            id_cols.append(int(spec[1]))
        elif kind == "gconst":
            id_cols.append(
                int(interner.intern(value_to_term(eval_term(spec[1], registry))))
            )
        else:  # expr
            values, is_int = _eval_expr(spec[1], state)
            id_cols.append(interner.intern_numeric(values, is_int, n))
    arrays = [col for col in id_cols if not isinstance(col, int)]
    index, first = _group_heads(arrays, n)
    u = len(first)
    columns = [
        [col] * u if isinstance(col, int) else col[first].tolist()
        for col in id_cols
    ]
    head_ids = list(zip(*columns)) if columns else [()] * u
    body = [(source.rel, source.relation_rows(rows)) if type(source) is _DeltaSource
            else (source, rows) for source, rows in state.prov]
    return FiringBatch(rule_id, index, head_ids=head_ids, body=body)


def execute_batch(
    plan,
    prog: BatchProgram,
    db,
    registry: BuiltinRegistry,
    delta_pred: Optional[str] = None,
    delta_rows=None,
    delta_occurrence: Optional[int] = None,
) -> Optional[FiringBatch]:
    """Run one vectorized rule call; same contract as ``fire_rule``.
    Returns None on runtime fallback — in that case nothing was emitted
    and no counter was committed, so the caller can re-run the call on
    the tuple executor.
    """
    delta_step = plan.delta_step(delta_pred, delta_occurrence)
    delta_src: Optional[_DeltaSource] = None
    state = _State()
    counters: Dict[int, list] = {}
    ops_run = 0
    try:
        for op in prog.ops:
            ops_run += 1
            if type(op) is _JoinOp:
                if op.step_idx == delta_step:
                    if delta_src is None:
                        delta_src = _DeltaSource(db.relation(op.predicate),
                                                 delta_rows)
                    if delta_src.ragged:
                        raise _Fallback
                    src, is_delta = delta_src, True
                else:
                    src, is_delta = db.relation(op.predicate), False
                if op.negated:
                    _exec_negation(op, src, state, counters, is_delta)
                else:
                    _exec_join(op, src, state, counters, is_delta)
            elif op[0] == _CMP:
                _exec_test(op, state)
            else:
                _exec_assign(op, state)
            if state.n == 0:
                break
        results = (_emit(plan.rule_id, prog, state, registry) if state.n
                   else FiringBatch.of(plan.rule_id, ()))
    except _Fallback:
        VECTOR_STATS["fallback_steps"] += 1
        return None
    for rel, probes, scans in counters.values():
        rel.probes += probes
        rel.scans += scans
    VECTOR_STATS["batch_calls"] += 1
    VECTOR_STATS["batch_rows"] += len(results.index)
    VECTOR_STATS["vectorized_steps"] += ops_run
    if _obs.enabled and state.stats[0]:
        _inst.join_selectivity.labels(rule=plan.label).observe(
            state.stats[1] / state.stats[0]
        )
    return results
