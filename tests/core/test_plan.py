"""Compiled rule plans (repro.core.plan).

Two kinds of coverage:

* **Differential tests** — the compiled-plan executor must produce a
  fixpoint identical to the seed recursive enumerator (facts *and*
  recorded derivations) on every program shape the engine supports:
  transitive closure, negation, aggregation, same-stratum chains,
  XY-stratified stage programs, function-symbol workloads, and the
  incremental evaluator under insertions and deletions.
* **Unit tests** — selectivity-aware ``Relation`` probing, plan
  structure (delta occurrences), the one compiler the distributed
  engines share (one ``order_body`` call per rule, pickling), and the
  plan cache (hits/misses, eviction, concurrent lookups).
"""

import pickle
import random
import threading

import pytest

from repro.core import plan as plan_module
from repro.core.builtins import DEFAULT_REGISTRY
from repro.core.derivations import Derivation, fact_ref
from repro.core.eval import (
    BottomUpEvaluator,
    Database,
    Relation,
    evaluate,
    fire_rule,
)
from repro.core.errors import ProgramError
from repro.core.incremental import IncrementalEvaluator
from repro.core.parser import parse_program
from repro.core.plan import (
    GLOBAL_PLAN_CACHE,
    CompiledPlan,
    PlanCache,
    seed_engine,
    seed_mode,
)
from repro.core.terms import Constant, Substitution, Variable
from repro.dist import plans as dist_plans
from repro.workloads.trajectories import TRAJECTORY_PROGRAM, trajectory_registry

LOGICH = """
    h(a, a, 0).
    h(a, X, 1) :- g(a, X).
    hp(Y, D + 1) :- h(_, Y, Dp), D + 1 > Dp, h(_, X, D), g(X, Y).
    h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
"""


def snapshot(db):
    """Everything the evaluator computed: rows per predicate plus the
    full derivation store."""
    rows = {p: db.rows(p) for p in db.predicates()}
    return rows, db.derivations.snapshot()


def run_both(program_text, facts, registry=None, evaluator=None):
    """Evaluate the same program with the compiled engine and with the
    seed engine; return both snapshots."""
    program = (
        parse_program(program_text, registry)
        if registry is not None
        else parse_program(program_text)
    )

    def fresh_db():
        db = Database(registry) if registry is not None else Database()
        for pred, args in facts:
            db.assert_fact(pred, args)
        return db

    def run(db):
        if evaluator is not None:
            evaluator(program, db.registry).evaluate(db)
        elif registry is not None:
            evaluate(program, db, registry)
        else:
            evaluate(program, db)
        return db

    compiled = snapshot(run(fresh_db()))
    with seed_engine():
        seed = snapshot(run(fresh_db()))
    return compiled, seed


def chain_facts(n):
    return [("e", (i, i + 1)) for i in range(n)]


def random_graph_facts(n_nodes, n_edges, seed=7):
    rng = random.Random(seed)
    return [
        ("e", (rng.randrange(n_nodes), rng.randrange(n_nodes)))
        for _ in range(n_edges)
    ]


class TestDifferentialFixpoints:
    """Compiled executor == seed enumerator, facts and derivations."""

    def test_transitive_closure_chain(self):
        compiled, seed = run_both(
            "tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z).",
            chain_facts(12),
        )
        assert compiled == seed

    def test_transitive_closure_random_graph(self):
        compiled, seed = run_both(
            "tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z).",
            random_graph_facts(12, 30),
        )
        assert compiled == seed

    def test_nonlinear_recursion(self):
        compiled, seed = run_both(
            "tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), tc(Y, Z).",
            random_graph_facts(10, 20, seed=3),
        )
        assert compiled == seed

    def test_stratified_negation(self):
        compiled, seed = run_both(
            """
            reach(X) :- source(X).
            reach(Y) :- reach(X), e(X, Y).
            unreached(X) :- node(X), not reach(X).
            """,
            [("source", (0,)), ("node", (0,)), ("node", (1,)),
             ("node", (2,)), ("node", (3,)),
             ("e", (0, 1)), ("e", (1, 2))],
        )
        assert compiled == seed
        assert compiled[0]["unreached"] == {(3,)}

    def test_aggregates_feeding_rules(self):
        compiled, seed = run_both(
            """
            m(S, max(V)) :- obs(S, V).
            alarm(S) :- m(S, V), V >= 3.
            """,
            [("obs", ("a", 1)), ("obs", ("a", 2)), ("obs", ("b", 5))],
        )
        assert compiled == seed
        assert compiled[0]["alarm"] == {("b",)}

    def test_same_stratum_chain(self):
        # a -> b -> c inside one stratum: the delta of b must reach c's
        # rule in the following round.
        compiled, seed = run_both(
            """
            a(X) :- base(X).
            b(X + 1) :- a(X), bound(B), X < B.
            c(X) :- b(X).
            a(X) :- c(X).
            """,
            [("base", (0,)), ("bound", (5,))],
        )
        assert compiled == seed

    def test_builtin_and_constant_args(self):
        compiled, seed = run_both(
            """
            out(X, k) :- e(X, Y), Y > 1, marked(Y, k).
            """,
            [("e", (1, 2)), ("e", (2, 3)), ("e", (3, 1)),
             ("marked", (2, "k")), ("marked", (3, "other"))],
        )
        assert compiled == seed
        assert compiled[0]["out"] == {(1, "k")}

    def test_xy_stratified_logich(self):
        for edges in (
            [("a", "b"), ("b", "c"), ("c", "d")],
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
            [("a", "b"), ("b", "c"), ("c", "a")],
        ):
            compiled, seed = run_both(
                LOGICH,
                [("g", edge) for edge in edges],
                evaluator=lambda program, registry: BottomUpEvaluator(program),
            )
            assert compiled == seed

    def test_trajectories_function_symbols(self):
        registry = trajectory_registry()
        reports = [(0, 0, 0), (1, 1, 1), (2, 2, 2),
                   (0, 3, 0), (1, 4, 1), (2, 5, 2)]
        compiled, seed = run_both(
            TRAJECTORY_PROGRAM,
            [("report", (r,)) for r in reports],
            registry=registry,
        )
        assert compiled == seed
        assert compiled[0]["parallel"]

    def test_incremental_insert_delete(self):
        program = parse_program(
            """
            tc(X, Y) :- e(X, Y).
            tc(X, Z) :- e(X, Y), tc(Y, Z).
            blocked(X) :- node(X), not tc(0, X).
            """
        )
        ops = [
            ("ins", "node", (0,)), ("ins", "node", (1,)),
            ("ins", "node", (2,)), ("ins", "node", (3,)),
            ("ins", "e", (0, 1)), ("ins", "e", (1, 2)),
            ("ins", "e", (2, 3)), ("del", "e", (1, 2)),
            ("ins", "e", (1, 3)), ("ins", "e", (3, 2)),
            ("del", "e", (0, 1)),
        ]

        def drive():
            ev = IncrementalEvaluator(program)
            for op, pred, args in ops:
                if op == "ins":
                    ev.insert(pred, args)
                else:
                    ev.delete(pred, args)
            return snapshot(ev.db)

        compiled = drive()
        with seed_engine():
            seed = drive()
        assert compiled == seed

    def test_incremental_matches_from_scratch(self):
        program_text = """
            tc(X, Y) :- e(X, Y).
            tc(X, Z) :- e(X, Y), tc(Y, Z).
        """
        ev = IncrementalEvaluator(parse_program(program_text))
        for u, v in [(0, 1), (1, 2), (2, 0), (1, 3)]:
            ev.insert("e", (u, v))
        ev.delete("e", (2, 0))
        oracle = Database()
        for u, v in [(0, 1), (1, 2), (1, 3)]:
            oracle.assert_fact("e", (u, v))
        evaluate(parse_program(program_text), oracle)
        assert ev.db.rows("tc") == oracle.rows("tc")


class TestSelectivityAwareRelation:
    def pattern(self, *values):
        return tuple(
            Constant(v) if not isinstance(v, str) or not v.isupper()
            else Variable(v)
            for v in values
        )

    def test_picks_smallest_bucket(self):
        rel = Relation("r")
        # Column 0 is low-selectivity (all tuples share key 0); column 1
        # is high-selectivity (distinct values).
        for i in range(50):
            rel.add((Constant(0), Constant(i)))
        # Build both indexes.
        assert len(set(rel.lookup([(0, Constant(0))]))) == 50
        assert len(set(rel.lookup([(1, Constant(7))]))) == 1
        # Both positions ground: the probe must come back with the
        # 1-element bucket, not the 50-element one.
        result = list(rel.lookup([(0, Constant(0)), (1, Constant(7))]))
        assert result == [(Constant(0), Constant(7))]

    def test_empty_bucket_short_circuits(self):
        rel = Relation("r")
        for i in range(10):
            rel.add((Constant(i), Constant(i % 2)))
        assert set(rel.lookup([(1, Constant(0))]))  # builds index on 1
        # Key absent from a built index: no candidates, regardless of
        # the other bound position.
        assert list(rel.lookup([(0, Constant(3)), (1, Constant(99))])) == []

    def test_candidates_counts_probes_scan_counts_scans(self):
        rel = Relation("r")
        rel.add((Constant(1), Constant(2)))
        before_probes, before_scans = rel.probes, rel.scans
        list(rel.candidates((Variable("X"), Variable("Y")), Substitution()))
        assert rel.probes == before_probes + 1  # full scans still probe
        rel.scan()
        assert rel.scans == before_scans + 1

    def test_candidates_superset_and_filtering(self):
        rel = Relation("r")
        for i in range(5):
            rel.add((Constant(i), Constant(i * 10)))
        pattern = (Constant(3), Variable("Y"))
        cands = set(rel.candidates(pattern, Substitution()))
        assert (Constant(3), Constant(30)) in cands
        assert all(row[0] == Constant(3) for row in cands)


class TestCompiledPlanStructure:
    def test_occurrence_counts(self):
        rule = parse_program("tc(X, Z) :- e(X, Y), tc(Y, Z).").rules[0]
        plan = CompiledPlan(rule)
        assert plan.occurrences == {"e": (0,), "tc": (1,)}
        assert plan.delta_step("tc", 0) == 1
        assert plan.delta_step("tc", 1) == plan.delta_step("absent", 0) == -1

    def test_double_occurrence(self):
        rule = parse_program("p(X, Z) :- e(X, Y), e(Y, Z).").rules[0]
        assert CompiledPlan(rule).occurrences == {"e": (0, 1)}

    def test_delta_occurrences_partition_matches(self):
        # Summing matches over each delta occurrence must reproduce the
        # full enumeration when the delta is the whole relation.
        program = parse_program("p(X, Z) :- e(X, Y), e(Y, Z).")
        rule = program.rules[0]
        db = Database()
        rows = [(0, 1), (1, 2), (2, 3), (1, 4)]
        for u, v in rows:
            db.assert_fact("e", (u, v))
        full = fire_rule(rule, db, db.registry).records
        delta = list(range(len(rows)))
        per_occ = []
        for occ in range(2):
            per_occ.extend(fire_rule(
                rule, db, db.registry,
                delta_pred="e", delta_rows=delta, delta_occurrence=occ,
            ).records)
        # Each full match appears once per occurrence when delta == rel.
        assert sorted(per_occ) == sorted(full * 2)

    def test_seed_restricts_execution(self):
        rule = parse_program("p(X, Y) :- e(X, Y).").rules[0]
        plan = CompiledPlan(rule)
        db = Database()
        for u, v in [(0, 1), (1, 2)]:
            db.assert_fact("e", (u, v))
        trigger = (Constant(1), Constant(2))
        regs, mask, check = plan.seed(0, trigger, db.registry, False)
        assert check is None and regs == list(trigger)
        matches = [list(used) for used in plan.execute(db, db.registry, regs, mask)]
        assert matches == [[("e", trigger)]]
        assert plan.seed(0, (Constant(1),), db.registry, False) is None  # arity

    def test_seed_defers_a_computed_argument(self):
        """``X + 1`` matches no number before X is bound: the seed
        leaves it to a check on the complete match."""
        rule = parse_program("p(X) :- a(X), not b(X + 1, _).").rules[0]
        plan = CompiledPlan(rule)
        trigger = (Constant(2), Constant(9))
        regs, mask, check = plan.seed(0, trigger, DEFAULT_REGISTRY, True)
        assert mask == 0 and check is not None  # the wildcard stays free
        for x, holds in [(1, True), (1.0, True), (2, False)]:
            regs[plan.slots[Variable("X")]] = Constant(x)
            assert plan_module.seed_holds(check, regs, trigger, DEFAULT_REGISTRY) is holds
        # A computed argument nothing else binds is refused at plan
        # time: no order of the body could match it.
        rule = parse_program("q(X) :- b(X + 1).").rules[0]
        with pytest.raises(ProgramError, match="cannot order body"):
            CompiledPlan(rule)


class TestDeltaFirst:
    """A delta of fewer than ``_MIN_BATCH`` rows is joined first
    (:meth:`CompiledPlan.delta_program`): the other subgoals are probed
    on what it binds, never scanned."""

    TC = "tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z)."
    GRID = [("g", (u, v)) for u, v in
            [("a", "b"), ("b", "a"), ("a", "c"), ("c", "a"), ("b", "d"),
             ("d", "b"), ("c", "d"), ("d", "c")]]

    def fixpoint(self, text, facts):
        db = Database()
        for pred, args in facts:
            db.assert_fact(pred, args)
        program = parse_program(text)
        evaluate(program, db)
        return program, db

    def fire_one_row(self, db, rule, pred, occurrence, row):
        """Fire ``rule`` with the one-row delta ``row`` of ``pred`` on
        its ``occurrence``-th occurrence: the batch, and the probes and
        scans of every relation it cost."""
        totals = lambda kind: [getattr(db.relation(p), kind) for p in db.predicates()]
        probes, scans = totals("probes"), totals("scans")
        batch = fire_rule(rule, db, db.registry, delta_pred=pred,
                          delta_rows=[row], delta_occurrence=occurrence)
        spent = [after - before for after, before in zip(totals("probes"), probes)]
        assert totals("scans") == scans
        return batch, sum(spent)

    def oracle_batch(self, db, rule, pred, occurrence, row):
        with seed_engine():
            return fire_rule(rule, db, db.registry, delta_pred=pred,
                             delta_rows=[row], delta_occurrence=occurrence)

    @pytest.mark.production
    @pytest.mark.parametrize("text, facts, head, pred", [
        (TC, [("e", (i, i + 1)) for i in range(6)], "tc", "tc"),
        (LOGICH, GRID, "h", "h"),
        (LOGICH, GRID, "hp", "h"),
    ])
    def test_a_one_row_delta_scans_nothing(self, text, facts, head, pred):
        """tc, logicH's h rule and its hp rule (both occurrences of
        ``h``): every row of the delta predicate as a one-row delta
        probes and scans no relation, and fires what the oracle
        fires."""
        program, db = self.fixpoint(text, facts)
        for rule in program.rules:
            plan = GLOBAL_PLAN_CACHE.get(rule)
            if rule.head.predicate != head or len(plan.positive) < 2:
                continue
            for occurrence in range(len(plan.occurrences[pred])):
                probes = 0
                for row in range(len(db.relation(pred).terms_rows)):
                    batch, spent = self.fire_one_row(db, rule, pred, occurrence, row)
                    probes += spent
                    oracle = self.oracle_batch(db, rule, pred, occurrence, row)
                    assert sorted(zip(batch.heads, batch.records), key=repr) == sorted(
                        zip(oracle.heads, oracle.records), key=repr)
                assert probes > 0
                pos = plan.delta_step(pred, occurrence)
                assert plan.delta_program(pos)[1] == 0

    @pytest.mark.production
    def test_hp_joins_from_its_frontier(self):
        """``hp``'s frontier ``h(_, X, D)`` leads, then the subgoal that
        shares X, then the one that shares Y, then the comparison; the
        record lists the facts in ``positive`` order."""
        program, db = self.fixpoint(LOGICH, self.GRID)
        rule = next(r for r in program.rules if r.head.predicate == "hp")
        plan = GLOBAL_PLAN_CACHE.get(rule)
        X, Y, D, Dp = map(Variable, ("X", "Y", "D", "Dp"))
        assert [(lit.predicate, lit.atom.args[-2:]) for lit in plan.positive] == [
            ("h", (Y, Dp)), ("h", (X, D)), ("g", (X, Y))]
        ops, depth = plan.delta_program(plan.delta_step("h", 1))
        assert depth == 0
        assert [(kind, index) for kind, _step, index in ops] == [
            (plan_module._JOIN, 1), (plan_module._JOIN, 2),
            (plan_module._JOIN, 0), (plan_module._TEST, 0)]
        # h(a, b, 1): X = b, D = 1; g(b, a) and h(a, a, 0) make hp(a, 2).
        trigger = ("h", (Constant("a"), Constant("b"), Constant(1)))
        row = db.relation("h").row(trigger[1])
        batch, _ = self.fire_one_row(db, rule, "h", 1, row)
        oracle = self.oracle_batch(db, rule, "h", 1, row)
        assert batch.heads == [(Constant("a"), Constant(2))]
        assert batch.records == oracle.records == [(
            plan.rule_id,
            fact_ref(("h", (Constant("a"), Constant("a"), Constant(0)))),
            fact_ref(trigger),
            fact_ref(("g", (Constant("b"), Constant("a")))),
        )]

    @pytest.mark.production
    def test_a_computed_delta_keeps_the_body_order(self):
        """``b(X + 1)`` cannot lead (no stored number matches ``X + 1``
        before X is bound): a delta on it keeps the body order, and
        fires what the oracle fires."""
        program, db = self.fixpoint(
            "q(X) :- a(X), b(X + 1).",
            [("a", (1,)), ("a", (2,)), ("b", (2,)), ("b", (4,))])
        rule = program.rules[0]
        plan = GLOBAL_PLAN_CACHE.get(rule)
        pos = plan.delta_step("b", 0)
        assert pos == 1
        assert plan.delta_program(pos) == (plan.program()[0], pos)
        for row in range(2):
            batch = fire_rule(rule, db, db.registry, delta_pred="b",
                              delta_rows=[row], delta_occurrence=0)
            oracle = self.oracle_batch(db, rule, "b", 0, row)
            assert (batch.heads, batch.records) == (oracle.heads, oracle.records)
        assert db.rows("q") == {(1,)}

    def test_without_a_lead_the_order_is_the_body_order(self):
        for text in (self.TC, LOGICH, "q(X) :- a(X), b(X + 1).",
                     "p(X) :- e(X, Y), not f(Y), Y > 1, e(Y, X)."):
            for rule in parse_program(text).rules:
                assert plan_module.order_body(rule) == list(
                    CompiledPlan(rule).body)


class TestOneCompiler:
    """The distributed engines join the central engine's plans."""

    def test_distributed_steps_are_the_core_steps(self):
        assert dist_plans.Step is plan_module.Step

    @pytest.mark.production
    def test_a_rule_is_ordered_once(self, monkeypatch):
        # The body order is computed once per rule; a tiny delta's
        # delta-first order (a lead subgoal) is the only other call.
        ordered = []
        order_body = plan_module.order_body

        def counting(rule, lead=None):
            if lead is None:
                ordered.append(rule)
            return order_body(rule, lead)

        monkeypatch.setattr(plan_module, "order_body", counting)
        GLOBAL_PLAN_CACHE.clear()
        program = parse_program(
            "tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z)."
        )
        db = Database()
        for i in range(6):
            db.assert_fact("e", (i, i + 1))
        evaluate(program, db)
        plan = dist_plans.DistributedPlan(program)
        rp, occurrence = plan.positive_triggers["e"][1]
        steps, _conclusion = rp.walk(occurrence)
        assert ordered == program.rules
        assert rp is plan.rule_plans[1] is GLOBAL_PLAN_CACHE.get(program.rules[1])
        seed_step = rp._seed_step(occurrence, False)[0]
        assert seed_step is rp.step(0, 0)
        assert steps == ((1, rp.step(1, seed_step.after)),)

    def test_distributed_plan_pickles_after_batch_analysis(self):
        program = parse_program("j(K, A, B) :- r(K, A), s(K, B).")
        plan = dist_plans.DistributedPlan(program)
        plan.rule_plans[0].walk(0)
        central = GLOBAL_PLAN_CACHE.get(program.rules[0])
        assert central.batch_program() is not None
        copy = pickle.loads(pickle.dumps(plan))
        rp, was = copy.rule_plans[0], plan.rule_plans[0]
        assert rp._compiled == was._compiled and rp._compiled
        assert rp.step(1, 0) == was.step(1, 0)
        # The batch program holds this process's interner ids: the copy
        # re-analyzes, in whatever process it lands in.
        assert not hasattr(rp, "_batch")
        assert rp.batch_program() is not None
        row = lambda *values: tuple(Constant(v) for v in values)
        ref = lambda pred, *values: fact_ref((pred, row(*values)))
        fired = dist_plans.delta_join(
            rp, 0, {"s": {row(1, "b"): ref("s", 1, "b"), row(2, "c"): ref("s", 2, "c")}},
            row(1, "a"), ref("r", 1, "a"), DEFAULT_REGISTRY,
        )
        assert fired == [
            (row(1, "a", "b"), (rp.rule_id, ref("r", 1, "a"), ref("s", 1, "b")), ()),
        ]


class TestPlanCache:
    def test_hit_miss_accounting(self):
        cache = PlanCache()
        rule = parse_program("p(X) :- q(X).").rules[0]
        plan1 = cache.get(rule)
        plan2 = cache.get(rule)
        assert plan1 is plan2
        assert cache.misses == 1 and cache.hits == 1
        assert len(cache) == 1

    def test_distinct_rule_ids_get_distinct_entries(self):
        cache = PlanCache()
        r1 = parse_program("p(X) :- q(X).").rules[0]
        r2 = parse_program("p(X) :- q(X).").rules[0]
        cache.get(r1)
        cache.get(r2)
        if r1.rule_id == r2.rule_id:
            assert len(cache) == 1
        else:
            assert len(cache) == 2

    def test_clear_drops_plans_and_counters(self):
        cache = PlanCache()
        rule = parse_program("p(X) :- q(X).").rules[0]
        cache.get(rule)
        cache.get(rule)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0
        cache.get(rule)
        assert cache.misses == 1  # recompiled

    def test_fifo_eviction(self, monkeypatch):
        monkeypatch.setattr(plan_module, "_MAX_PLANS", 2)
        cache = PlanCache()
        rules = parse_program(
            "a(X) :- q(X). b(X) :- q(X). c(X) :- q(X)."
        ).rules
        for r in rules:
            cache.get(r)
        assert len(cache) == 2  # oldest evicted
        cache.get(rules[0])     # misses again
        assert cache.misses == 4

    def test_concurrent_compiles_miss_once_per_rule(self):
        # 8 threads x 40 lookups over 2 rules: every lookup must return
        # the one shared plan of its rule and the miss counter must
        # equal the number of rules.
        cache = PlanCache()
        rules = parse_program("p(X) :- q(X). r(X) :- s(X).").rules
        plans = [set() for _ in rules]
        errors = []
        barrier = threading.Barrier(8)

        def worker():
            try:
                barrier.wait()
                for i in range(40):
                    which = i % len(rules)
                    plans[which].add(id(cache.get(rules[which])))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(len(ids) == 1 for ids in plans)
        assert cache.misses == len(rules)
        assert cache.hits == 8 * 40 - len(rules)

    @pytest.mark.production
    def test_global_cache_used_by_evaluator(self, tuple_executor):
        with tuple_executor():
            GLOBAL_PLAN_CACHE.clear()
            db = Database()
            db.assert_fact("e", (1, 2))
            program = parse_program("tc(X, Y) :- e(X, Y).")
            evaluate(program, db)
            misses_after_first = GLOBAL_PLAN_CACHE.misses
            assert misses_after_first >= 1
            db2 = Database()
            db2.assert_fact("e", (3, 4))
            evaluate(program, db2)
            assert GLOBAL_PLAN_CACHE.misses == misses_after_first
            assert GLOBAL_PLAN_CACHE.hits >= 1


class TestSeedEngineToggle:
    def test_seed_engine_restores_flag(self):
        # Relative to the ambient mode: the oracle leg (--oracle) runs
        # this test inside a seed_engine() block of its own.
        ambient = seed_mode()
        with seed_engine():
            assert seed_mode()
            with seed_engine():
                assert seed_mode()
            assert seed_mode()
        assert seed_mode() == ambient

    @pytest.mark.production
    def test_probe_reduction_on_transitive_closure(self, tuple_executor):
        """The headline property: the compiled executor's memoized
        probing does strictly less index work than the seed engine on
        the same workload, with identical results.

        Pinned to the tuple executor: the probe-memoization claim is
        about per-binding probing, which the batch engine replaces with
        one probe per vectorized join step.
        """
        program_text = "tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z)."
        facts = random_graph_facts(20, 80, seed=11)

        def probes_of():
            db = Database()
            for pred, args in facts:
                db.assert_fact(pred, args)
            evaluate(parse_program(program_text), db)
            return db.rows("tc"), sum(
                db.relation(p).probes for p in db.predicates()
            )

        with tuple_executor():
            compiled_rows, compiled_probes = probes_of()
        with seed_engine():
            seed_rows, seed_probes = probes_of()
        assert compiled_rows == seed_rows
        assert compiled_probes * 3 <= seed_probes
