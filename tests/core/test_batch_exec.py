"""Three-way differential tests for the vectorized batch executor.

Production evaluation (batch kernels where a firing vectorizes, the
tuple executor where it does not) must compute bit-identical fixpoints —
derived rows *and* recorded derivations — to both the tuple-at-a-time
compiled executor alone (the ``tuple_executor`` fixture) and the seed
recursive enumerator, on every program shape it claims to support, and
must *fall back* (not diverge) on the shapes it does not: exact integers
beyond float64 range, sub-batch deltas, unsupported step forms.
``VECTOR_STATS`` makes the coverage observable, so these tests also pin
when vectorization actually happened versus when the tuple executor
quietly took over.
"""

import random
from collections import Counter
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.derivations import Derivation, DerivationStore
from repro.core import eval as core_eval
from repro.core import plan as core_plan
from repro.core import vector as core_vector
from repro.core.errors import BuiltinError, EvaluationError
from repro.core.eval import (
    BottomUpEvaluator,
    Database,
    enumerate_rule_recursive,
    evaluate,
    ground_head,
)
from repro.core.parser import parse_program
from repro.core.plan import GLOBAL_PLAN_CACHE, seed_engine
from repro.core.stratify import ProgramClass, classify
from repro.core.terms import Constant
from repro.core.columnar import GLOBAL_INTERNER
from repro.core.vector import VECTOR_STATS

from .test_derivations import record

#: Production-only assertions (vectorization counters) make no sense
#: inside the oracle leg's seed_engine() block.
pytestmark = pytest.mark.production

TC = "tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z)."

LOGICH = """
    h(a, a, 0).
    h(a, X, 1) :- g(a, X).
    hp(Y, D + 1) :- h(_, Y, Dp), D + 1 > Dp, h(_, X, D), g(X, Y).
    h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
"""

PARITY = """
    even(a).
    odd(Y) :- even(X), g(X, Y).
    even(Y) :- odd(X), g(X, Y).
"""


def fact(pred, *values):
    return pred, tuple(Constant(v) for v in values)


def snapshot(db):
    rows = {p: db.rows(p) for p in db.predicates()}
    return rows, db.derivations.snapshot()


def fixpoint(program_text, facts, executor=nullcontext, evaluator=None):
    """Snapshot of the fixpoint computed inside ``executor()`` — the
    production path as is, ``tuple_executor`` or ``seed_engine``."""
    program = parse_program(program_text)
    db = Database()
    for pred, args in facts:
        db.assert_fact(pred, args)
    GLOBAL_PLAN_CACHE.clear()
    with executor():
        if evaluator is not None:
            evaluator(program).evaluate(db)
        else:
            evaluate(program, db)
    return snapshot(db)


def assert_all_engines_agree(tuple_executor, program_text, facts,
                             evaluator=None):
    oracle = fixpoint(program_text, facts, seed_engine, evaluator)
    assert fixpoint(program_text, facts, evaluator=evaluator) == oracle
    assert fixpoint(program_text, facts, tuple_executor, evaluator) == oracle
    return oracle


def random_graph(n_nodes, n_edges, seed):
    rng = random.Random(seed)
    return [
        ("e", (rng.randrange(n_nodes), rng.randrange(n_nodes)))
        for _ in range(n_edges)
    ]


class TestThreeWayDifferential:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_nodes=st.integers(2, 14),
        n_edges=st.integers(1, 40),
    )
    def test_transitive_closure_random_graphs(
            self, tuple_executor, seed, n_nodes, n_edges):
        assert_all_engines_agree(
            tuple_executor, TC, random_graph(n_nodes, n_edges, seed))

    def test_repeated_variables(self, tuple_executor):
        rows, _ = assert_all_engines_agree(
            tuple_executor,
            "loop(X) :- e(X, X). meet(X, Y) :- e(X, Y), e(Y, X).",
            [("e", (1, 1)), ("e", (1, 2)), ("e", (2, 1)), ("e", (3, 4))],
        )
        assert rows["loop"] == {(1,)}
        assert rows["meet"] == {(1, 1), (1, 2), (2, 1)}

    def test_constants_in_body_and_head(self, tuple_executor):
        rows, _ = assert_all_engines_agree(
            tuple_executor,
            "out(X, tag) :- e(root, X). flag(yes) :- e(root, leaf).",
            [("e", ("root", "leaf")), ("e", ("leaf", "other"))],
        )
        assert rows["out"] == {("leaf", "tag")}
        assert rows["flag"] == {("yes",)}

    def test_comparisons_and_head_arithmetic(self, tuple_executor):
        rows, _ = assert_all_engines_agree(
            tuple_executor,
            """
            up(X, Y + 1) :- e(X, Y), X < Y.
            mid(X) :- e(X, Y), Y >= 2, Y * 2 < 10.
            """,
            [("e", (1, 2)), ("e", (3, 2)), ("e", (2, 4)), ("e", (4, 4))],
        )
        assert rows["up"] == {(1, 3), (2, 5)}
        assert rows["mid"] == {(1,), (3,), (2,), (4,)}

    def test_negation_with_wildcards(self, tuple_executor):
        rows, _ = assert_all_engines_agree(
            tuple_executor,
            """
            covered(X) :- v(X), e(X, _).
            sink(X) :- v(X), not e(X, _).
            source(X) :- v(X), not e(_, X).
            quiet(X) :- v(X), not e(_, _).
            """,
            [("v", (1,)), ("v", (2,)), ("v", (3,)),
             ("e", (1, 2)), ("e", (2, 3))],
        )
        assert rows["sink"] == {(3,)}
        assert rows["source"] == {(1,)}
        assert rows["quiet"] == set()

    def test_repeat_beside_a_bound_occurrence(self, tuple_executor):
        # Y repeats inside the subgoal that first meets it, next to X,
        # bound by then; the last subgoal repeats both, all bound.
        rows, _ = assert_all_engines_agree(
            tuple_executor,
            "t(X, Y) :- v(X), e(X, Y, Y), e(Y, X, X).",
            [("v", (1,)), ("v", (2,)), ("v", (3,)),
             ("e", (1, 2, 2)), ("e", (2, 1, 1)), ("e", (1, 3, 2)),
             ("e", (3, 3, 3)), ("e", (2, 2, 1))],
        )
        assert rows["t"] == {(1, 2), (2, 1), (3, 3)}

    def test_int_float_join_keys_spell_the_stored_row(self, tuple_executor):
        # 1 == 1.0 joins; a derivation names the stored spelling of each
        # row — also for c(X), a point lookup once X is bound.
        text = "out(X, K) :- a(X), b(X, K), c(X)."
        facts = [("a", (1,)), ("b", (1.0, "k")), ("b", (2, "z")), ("c", (1.0,))]
        assert_all_engines_agree(tuple_executor, text, facts)
        for executor in (nullcontext, tuple_executor, seed_engine):
            rows, derivs = fixpoint(text, facts, executor)
            assert rows["out"] == {(1, "k")}
            assert {repr(d) for ds in derivs.values() for d in ds} == {
                "<rule 0: a('1',), b('1.0', 'k'), c('1.0',)>"
            }

    def test_batch_heads_into_a_ragged_relation(self, tuple_executor):
        # p already holds a row of another arity, so it has no id columns
        # to read the new rows' refs from.
        rows, derivs = assert_all_engines_agree(
            tuple_executor, "p(X) :- q(X).",
            [("p", (0, 0))] + [("q", (i,)) for i in range(6)],
        )
        assert rows["p"] == {(0, 0)} | {(i,) for i in range(6)}
        assert len(derivs) == 6

    def test_list_pattern_with_bound_head(self, tuple_executor):
        rows, _ = assert_all_engines_agree(
            tuple_executor,
            "tail(H, T) :- v(H), l([H | T]).",
            [("v", (1,)), ("v", (2,)), ("v", (4,)),
             ("l", ([1, 2, 3],)), ("l", ([2],)), ("l", ([3, 1],))],
        )
        assert rows["tail"] == {(1, (2, 3)), (2, "nil")}

    def test_assignment_feeding_a_probe_or_testing_it(self, tuple_executor):
        # With q(Y) textually first Y is bound when "=" runs: a test.
        rows, _ = assert_all_engines_agree(
            tuple_executor,
            """
            fed(X, Y) :- p(X), Y = X + 1, q(Y).
            tested(X, Y) :- q(Y), p(X), Y = X + 1.
            """,
            [("p", (i,)) for i in range(6)] + [("q", (2,)), ("q", (5,)), ("q", (9,))],
        )
        assert rows["fed"] == rows["tested"] == {(1, 2), (4, 5)}

    def test_aggregate_counts_once_read_variables(self, tuple_executor):
        # All-solutions semantics: (1, a) and (1, b) are two valuations
        # although nothing reads Y again.
        rows, _ = assert_all_engines_agree(
            tuple_executor,
            "n(count(X)) :- p(X, Y). m(X, count(Y)) :- p(X, Y), p(_, Y).",
            [("p", (1, "a")), ("p", (1, "b")), ("p", (2, "a"))],
        )
        assert rows["n"] == {(3,)}
        assert rows["m"] == {(1, 2), (2, 1)}

    @pytest.mark.parametrize("text, facts, error", [
        ("bad(X) :- p(X), X < 3.", [("p", ((1, 2),))], BuiltinError),
        ("bad(X) :- p(X), q(Y), X < Y.",
         [("p", (1,)), ("q", ((1, 2),)), ("q", (3,))], BuiltinError),
        ("bad(X / Y) :- d(X, Y).", [("d", (4, 2)), ("d", (1, 0))],
         ZeroDivisionError),
        ("bad(X) :- d(X, Y), X mod Y > 0.", [("d", (1, 0))], ZeroDivisionError),
        ("bad(X) :- a(X, W), 0 <= W.", [("a", (0, "s"))], BuiltinError),
        ("bad(X) :- d(X, Y), l([X | X]).", [("d", (0, 1)), ("l", ((0, 1),))],
         EvaluationError),
    ])
    def test_errors_raise_alike(self, tuple_executor, text, facts, error):
        for executor in (seed_engine, nullcontext, tuple_executor):
            with pytest.raises(error):
                fixpoint(text, facts, executor)

    def test_unsafe_head_raises_alike(self, tuple_executor):
        # evaluate() refuses an unsafe program; a rule fired directly
        # raises on its first match, and only then.
        rule = parse_program("bad(X, Y) :- p(X).").rules[0]
        for executor in (seed_engine, nullcontext, tuple_executor):
            db = Database()
            with executor():
                assert core_eval.fire_rule(rule, db, db.registry).records == []
                db.assert_fact("p", (1,))
                with pytest.raises(EvaluationError):
                    core_eval.fire_rule(rule, db, db.registry)

    @pytest.mark.parametrize("idx, trigger", [
        (1, (2, 3)), (0, (1, 2)), (1, (2, 5)), (1, (7, 3)),
    ])
    def test_seed_binds_a_later_subgoal(self, idx, trigger):
        """A join started from one fact of a later subgoal finds what
        the oracle finds through that fact."""
        rule = parse_program("out(X, Z) :- a(X, Y), b(Y, Z), Z > X.").rules[0]
        plan = GLOBAL_PLAN_CACHE.get(rule)
        db = Database()
        for pred, args in [("a", (1, 2)), ("a", (2, 2)), ("a", (4, 7)),
                           ("b", (2, 3)), ("b", (2, 5)), ("b", (7, 3))]:
            db.assert_fact(pred, args)
        fact = (plan.positive[idx].predicate, tuple(map(Constant, trigger)))
        regs, mask, check = plan.seed(idx, fact[1], db.registry, False)
        assert check is None
        head = plan.program(mask)[1]
        production = sorted(
            (repr(tuple(core_plan._eval_term(a, regs, db.registry) for a in head)),
             repr(list(used)))
            for used in plan.execute(db, db.registry, regs, mask)
        )
        oracle = sorted(
            (repr(ground_head(rule, subst, db.registry)), repr(used))
            for subst, used in enumerate_rule_recursive(rule, db, db.registry)
            if used[idx] == fact
        )
        assert production == oracle
        assert bool(production) == (trigger != (7, 3))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(2, 5),
           with_parity=st.booleans())
    def test_xy_logich_grids(self, tuple_executor, seed, m, with_parity):
        rng = random.Random(seed)
        names = ["a"] + [f"n{i}" for i in range(1, m * 2)]
        facts = []
        for u in names:
            for v in rng.sample(names, k=min(2, len(names))):
                if u != v:
                    facts.append(("g", (u, v)))
                    facts.append(("g", (v, u)))
        # A positive mutually recursive pair beside the staged component
        # keeps the class XY-stratified and must be saturated around it.
        text = LOGICH + PARITY if with_parity else LOGICH
        assert classify(parse_program(text)).program_class \
            == ProgramClass.XY_STRATIFIED
        assert_all_engines_agree(
            tuple_executor, text, sorted(set(facts)),
            evaluator=lambda program: BottomUpEvaluator(program),
        )


class TestFallbacks:
    def test_huge_integers_fall_back_identically(self, tuple_executor):
        """Integers beyond 2**53 are outside exact float64 range: the
        batch kernels must hand the rule back to the tuple executor and
        still produce the seed engine's exact-arithmetic answer."""
        big = 2 ** 60
        before = VECTOR_STATS["fallback_steps"]
        rows, _ = assert_all_engines_agree(
            tuple_executor,
            "next(X + 1) :- e(X).",
            [("e", (big,)), ("e", (7,))],
        )
        assert rows["next"] == {(big + 1,), (8,)}
        assert VECTOR_STATS["fallback_steps"] > before

    def test_a_sum_that_rounds_onto_two_to_the_53_falls_back(self, tuple_executor):
        # float64(2**53 + 1) == 2**53: the kernel cannot tell the sum
        # from an exact 2**53, so it refuses both.
        big = 2 ** 53
        before = VECTOR_STATS["fallback_steps"]
        rows, _ = assert_all_engines_agree(
            tuple_executor, "next(X + 1) :- e(X).", [("e", (big,)), ("e", (7,))],
        )
        assert rows["next"] == {(big + 1,), (8,)}
        assert VECTOR_STATS["fallback_steps"] > before

    def test_small_deltas_use_tuple_path_identically(self, tuple_executor):
        # Below _MIN_BATCH the dispatcher skips vectorization entirely;
        # results must not depend on which side ran.
        rows, _ = assert_all_engines_agree(
            tuple_executor, TC, [("e", (0, 1)), ("e", (1, 2))])
        assert rows["tc"] == {(0, 1), (1, 2), (0, 2)}


class TestComputedProbes:
    """A computed argument of a subgoal (``hp(Y, D + 1)``) is assigned
    to a scratch column and probed like a bound variable."""

    def test_every_logich_rule_vectorizes(self):
        for rule in parse_program(LOGICH).rules:
            assert GLOBAL_PLAN_CACHE.get(rule).batch_program() is not None, rule

    def test_mixed_int_float_stage_column(self, tuple_executor):
        # 2.0 + 1 == 3 finds p's int row, 3 + 1 == 4 its float row; the
        # derivations spell the stored rows.
        text = """
            next(X, Z) :- s(X, D), p(Z, D + 1).
            last(X) :- s(X, D), not p(_, D + 1).
        """
        facts = [("s", ("a", 2.0)), ("s", ("b", 3)), ("s", ("c", 0)),
                 ("s", ("d", 5.5)), ("p", ("z", 3)), ("p", ("y", 4.0)),
                 ("p", ("x", 6.5))]
        before = dict(VECTOR_STATS)
        rows, _ = assert_all_engines_agree(tuple_executor, text, facts)
        assert rows["next"] == {("a", "z"), ("b", "y"), ("d", "x")}
        assert rows["last"] == {("c",)}
        assert VECTOR_STATS["batch_calls"] > before["batch_calls"]
        assert VECTOR_STATS["fallback_steps"] == before["fallback_steps"]

    def test_a_column_past_exact_range_falls_back(self, tuple_executor):
        # 2**53 + 1 rounds to 2**53 in float64: only the fallback keeps
        # p(2**53) from matching.
        big = 2 ** 53
        text = "out(X) :- s(X, D), p(D + 1). gap(X) :- s(X, D), not p(D + 1)."
        facts = [("s", ("a", big)), ("s", ("b", 7)), ("p", (big,)), ("p", (8,))]
        before = VECTOR_STATS["fallback_steps"]
        rows, _ = assert_all_engines_agree(tuple_executor, text, facts)
        assert rows["out"] == {("b",)}
        assert rows["gap"] == {("a",)}
        assert VECTOR_STATS["fallback_steps"] > before


class TestRoutes:
    """``fire_rule`` picks an executor per firing; every route of one
    program's fixpoint must land in the oracle's snapshot."""

    # fe's head and skip's fe(f(Y), Z) are terms through eval_term: the
    # analyzer refuses both rules.
    PROGRAM = TC + """
        fe(f(X), Y) :- e(X, Y).
        skip(X, Z) :- e(X, Y), fe(f(Y), Z).
        next(X + 1) :- w(X).
    """

    def test_every_route_reaches_the_oracle_snapshot(self, monkeypatch):
        facts = [("e", (i, i + 1)) for i in range(12)]
        facts += [("w", (2 ** 60,)), ("w", (7,))]
        oracle = fixpoint(self.PROGRAM, facts, seed_engine)

        routes = {"batch": 0, "forced-fallback": 0,
                  "small-delta": 0, "not-vectorizable": 0}
        batch, tuples = core_eval.execute_batch, core_eval._fire_rule_tuples
        declined = []

        def spy_batch(plan, *args, **kwargs):
            results = batch(plan, *args, **kwargs)
            if results is None:
                declined.append(plan.rule)
            routes["batch" if results is not None else "forced-fallback"] += 1
            return results

        def spy_tuples(rule, db, registry, **delta):
            if rule in declined:
                declined.remove(rule)
            elif GLOBAL_PLAN_CACHE.get(rule).batch_program() is None:
                routes["not-vectorizable"] += 1
            else:
                assert len(delta["delta_tuples"]) < core_eval._MIN_BATCH
                routes["small-delta"] += 1
            return tuples(rule, db, registry, **delta)

        monkeypatch.setattr(core_eval, "execute_batch", spy_batch)
        monkeypatch.setattr(core_eval, "_fire_rule_tuples", spy_tuples)
        assert fixpoint(self.PROGRAM, facts) == oracle
        assert all(routes.values()), routes


class TestVectorStats:
    def test_columnar_tc_is_actually_vectorized(self):
        before = dict(VECTOR_STATS)
        rows, _ = fixpoint(TC, random_graph(12, 40, seed=5))
        assert VECTOR_STATS["batch_calls"] > before["batch_calls"]
        assert VECTOR_STATS["vectorized_steps"] > before["vectorized_steps"]
        # Every distinct derived tuple came out of some batch emission.
        produced = VECTOR_STATS["batch_rows"] - before["batch_rows"]
        assert produced >= len(rows["tc"])

    def test_tuple_engine_never_touches_batch_kernels(self, tuple_executor):
        before = dict(VECTOR_STATS)
        fixpoint(TC, random_graph(12, 40, seed=5), tuple_executor)
        assert VECTOR_STATS["batch_calls"] == before["batch_calls"]
        assert VECTOR_STATS["fallback_steps"] == before["fallback_steps"]

    def test_emit_dedups_duplicate_head_rows_in_id_space(self):
        # A dense random graph derives the same tc(X, Z) head through
        # many intermediate Y bindings; those duplicate rows must be
        # collapsed before tuple materialization without changing the
        # derived rows or their provenance.
        facts = random_graph(10, 60, seed=7)
        before = VECTOR_STATS["emit_dedup_rows"]
        expected = fixpoint(TC, facts, seed_engine)
        got = fixpoint(TC, facts)
        assert got == expected
        assert VECTOR_STATS["emit_dedup_rows"] > before


class TestFiringBatch:
    def test_heads_are_grouped_in_first_firing_order(self):
        # Relations append rows per distinct head, so groups must come in
        # the order their heads first fired — not np.unique's sort order.
        first_col = np.array([9, 3, 9, 5] * 4, dtype=np.int64)
        second_col = np.array([1, 1, 1, 2] * 4, dtype=np.int64)
        index, first = core_vector._group_heads([first_col, second_col], 16)
        assert index.tolist() == [0, 1, 0, 2] * 4
        assert first.tolist() == [0, 1, 3]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(16, 120),
        width=st.integers(1, 5),
        pool=st.lists(
            st.sampled_from([0, 1, 7, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 5, 2 ** 40]),
            min_size=1, max_size=4, unique=True),
        seed=st.integers(0, 10_000),
    )
    def test_packed_grouping_is_np_unique_in_first_firing_order(
            self, n, width, pool, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.choice(np.array(pool, dtype=np.int64), size=n)
                  for _ in range(width)]
        _u, first, inverse = np.unique(np.column_stack(arrays), axis=0,
                                       return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        index, got_first = core_vector._group_heads(arrays, n)
        assert index.tolist() == rank[inverse.ravel()].tolist()
        assert got_first.tolist() == first[order].tolist()

    def test_wide_ids_re_densify_the_packed_key(self, monkeypatch):
        # Five columns of ids near 2**31: the key passes 2**62 at the
        # second column, so it is re-densified before each later one.
        calls = []
        unique = np.unique

        def spy(ar, *args, **kwargs):
            calls.append(kwargs)
            return unique(ar, *args, **kwargs)

        monkeypatch.setattr(core_vector.np, "unique", spy)
        big = 2 ** 31
        arrays = [np.array([big + (i * k) % 3 for i in range(40)], dtype=np.int64)
                  for k in range(1, 6)]
        index, first = core_vector._group_heads(arrays, 40)
        assert sum("return_index" not in kw for kw in calls) == 4
        rows = list(zip(*[a.tolist() for a in arrays]))
        assert [rows[i] for i in first.tolist()] == list(dict.fromkeys(rows))
        assert [rows[first[g]] for g in index] == rows

    def test_a_small_batch_adds_a_repeated_head_once(self):
        # Under _EMIT_DEDUP_MIN_ROWS rows the kernels hand over one head
        # per firing: p(1) twice.  Membership is decided row by row, so
        # it is inserted once and joins the delta once.
        db = Database()
        for args in ((1, 2), (1, 3), (4, 5), (6, 7)):
            db.assert_fact("e", args)
        program = parse_program("p(X) :- e(X, Y).")
        rule = program.rules[0]
        firings = core_eval.fire_rule(rule, db, db.registry)
        assert len(firings.index) < core_vector._EMIT_DEDUP_MIN_ROWS
        one = GLOBAL_INTERNER.get(Constant(1))
        assert firings.head_ids.count((one,)) == 2
        deltas = {}
        added = BottomUpEvaluator(program)._absorb(db, rule, firings, deltas)
        assert added == 3 and deltas == {"p": [0, 1, 2]}
        assert db.rows("p") == {(1,), (4,), (6,)}
        assert len(db.relation("p").terms_rows) == 3
        assert len(db.derivations.derivations_of(fact("p", 1))) == 2

    def test_a_restricted_batch_keeps_heads_and_ids_aligned(self):
        db = Database()
        for x in range(20):
            db.assert_fact("e", (x, x + 1))
        program = parse_program("p(X, Y) :- e(X, Y).")
        rule = program.rules[0]
        firings = core_eval.fire_rule(rule, db, db.registry)
        assert firings.head_ids is not None
        kept = firings.restrict(lambda head: head[0].value % 3 == 0)
        assert kept.heads == [tuple(map(GLOBAL_INTERNER.term, key))
                              for key in kept.head_ids]
        assert [head[0].value for head in kept.heads] == list(range(0, 20, 3))
        deltas = {}
        assert BottomUpEvaluator(program)._absorb(db, rule, kept, deltas) == 7
        assert db.rows("p") == {(x, x + 1) for x in range(0, 20, 3)}
        assert len(db.derivations.derivations_of(fact("p", 3, 4))) == 1
        assert not db.derivations.derivations_of(fact("p", 1, 2))

    def test_a_batch_holds_the_tuple_executor_firings(self):
        db = Database()
        for pred, args in random_graph(8, 30, seed=3):
            db.assert_fact(pred, args)
        program = parse_program(TC)
        evaluate(program, db)
        rule = program.rules[1]
        rel = db.relation("e")
        rows = list(range(len(rel.terms_rows)))
        before = VECTOR_STATS["batch_calls"]
        batch = core_eval.fire_rule(rule, db, db.registry, delta_pred="e",
                                    delta_rows=rows, delta_occurrence=0)
        assert VECTOR_STATS["batch_calls"] == before + 1
        assert type(batch) is core_eval.FiringBatch
        tuples = core_eval._fire_rule_tuples(
            rule, db, db.registry, delta_pred="e",
            delta_tuples=[rel.terms_rows[row] for row in rows],
            delta_occurrence=0)
        assert type(tuples) is core_eval.FiringBatch

        def firings(batch):
            return Counter(zip(map(batch.heads.__getitem__, batch.index),
                               batch.records))

        assert firings(batch) == firings(tuples)


class TestLazySupportIndex:
    @staticmethod
    def toy_store():
        store = DerivationStore()
        record(store, fact("tc", 1, 2), Derivation(0, [fact("e", 1, 2)]))
        record(store, fact("tc", 1, 3),
               Derivation(1, [fact("e", 1, 2), fact("tc", 2, 3)]))
        record(store, fact("tc", 2, 3), Derivation(0, [fact("e", 2, 3)]))
        return store

    @staticmethod
    def brute_supporters(store, supporter):
        return {
            dependent
            for dependent in store.facts()
            for d in store.derivations_of(dependent)
            if d.uses(supporter)
        }

    def test_index_unbuilt_until_deletion_path(self):
        store = self.toy_store()
        assert store._supports is None  # forward evaluation: no index
        supporters = store.supporters(fact("e", 1, 2))
        assert store._supports is not None
        assert supporters == {fact("tc", 1, 2), fact("tc", 1, 3)}

    def test_lazy_build_matches_brute_force(self):
        store = self.toy_store()
        for supporter in [fact("e", 1, 2), fact("e", 2, 3), fact("tc", 2, 3),
                          fact("tc", 1, 3), fact("nope", 9)]:
            assert store.supporters(supporter) == \
                self.brute_supporters(store, supporter)

    def test_adds_after_build_maintain_index(self):
        store = self.toy_store()
        store.supporters(fact("e", 1, 2))  # force build
        record(store, fact("tc", 0, 2),
               Derivation(1, [fact("e", 0, 1), fact("tc", 1, 2)]))
        assert store.supporters(fact("tc", 1, 2)) == \
            self.brute_supporters(store, fact("tc", 1, 2))

    def test_remove_support_equivalent_built_early_or_late(self):
        def cascade(build_early):
            store = self.toy_store()
            if build_early:
                store.supporters(fact("e", 1, 2))
            emptied = store.remove_support(fact("e", 1, 2))
            return sorted(emptied, key=repr), sorted(store.facts(), key=repr)

        assert cascade(build_early=True) == cascade(build_early=False)

    def test_discard_fact_with_and_without_index(self):
        for build_first in (False, True):
            store = self.toy_store()
            if build_first:
                store.supporters(fact("e", 1, 2))
            store.discard_fact(fact("tc", 1, 3))
            assert not store.has_fact(fact("tc", 1, 3))
            assert store.supporters(fact("tc", 2, 3)) == set()
