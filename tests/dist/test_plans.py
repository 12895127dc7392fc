"""Tests for the distributed plan compiler."""

import pytest

from repro.core.errors import BuiltinError, EvaluationError, PlanError
from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program
from repro.core.stratify import ProgramClass
from repro.core.builtins import DEFAULT_REGISTRY
from repro.core.plan import GLOBAL_PLAN_CACHE
from repro.core.terms import Constant, Variable
from repro.dist.plans import DistributedPlan, conclude


class TestRulePlan:
    def test_partitions_literals(self):
        plan = DistributedPlan(parse_program(
            "p(X) :- q(X), not r(X), X > 2, s(X, _)."
        ))
        (rp,) = plan.rule_plans
        assert rp is GLOBAL_PLAN_CACHE.get(plan.program.rules[0])
        assert [l.predicate for l in rp.positive] == ["q", "s"]
        assert [l.predicate for l in rp.negative] == ["r"]
        assert [l.name for l in rp.builtins] == [">"]
        assert plan.by_id == {0: rp} and rp.rule_id == 0

    def test_pure_builtin_body_rejected(self):
        # No positive relational subgoal: nothing can trigger the rule.
        with pytest.raises(PlanError, match="no positive relational subgoal"):
            DistributedPlan(parse_program("p(1) :- 1 < 2."))

    def test_seed_check_starts_a_blocker(self):
        """logicJ's blocker ``not jp(Y, D + 1)``: a ``jp`` arrival seeds
        Y and leaves ``D + 1`` to a check on the complete match."""
        plan = DistributedPlan(parse_program(
            "jp(Y, D + 1) :- j(Y, Dp), D + 1 > Dp, j(X, D), g(X, Y). "
            "j(Y, D + 1) :- g(X, Y), j(X, D), not jp(Y, D + 1)."
        ))
        ((rp, idx),) = plan.negative_triggers["jp"]
        regs, mask, check = rp.seed(idx, (Constant(0), Constant(2)),
                                    DEFAULT_REGISTRY, True)
        assert regs[rp.slots[Variable("Y")]] == Constant(0)
        assert mask == 1 << rp.slots[Variable("Y")]
        assert [pos for pos, _ in check] == [1]


#: (rule, trigger fact, error): an ordered comparison of a number with a
#: string, and an improper list ``[X | X]`` evaluated for the head.
TYPED_ERRORS = [
    ("out(X) :- a(X, W), 0 <= W.", (0, "s"), BuiltinError),
    ("out([X | X]) :- a(X, W).", (0, 1), EvaluationError),
]


class TestTypedErrors:
    """A bad value raises an EvaluationError centrally, so a node's
    ``conclude`` drops the match instead of raising out of its handler."""

    @pytest.mark.parametrize("text, args, error", TYPED_ERRORS)
    def test_evaluate_raises_the_typed_error(self, text, args, error):
        db = Database()
        db.assert_fact("a", args)
        with pytest.raises(error):
            evaluate(parse_program(text), db)

    @pytest.mark.parametrize("text, args, error", TYPED_ERRORS)
    def test_conclude_drops_the_match(self, text, args, error):
        (rp,) = DistributedPlan(parse_program(text)).rule_plans
        args = tuple(map(Constant, args))
        regs, _mask, check = rp.seed(0, args, DEFAULT_REGISTRY, False)
        steps, (builtins, head, _negs) = rp.walk(0)
        assert steps == ()
        assert conclude(builtins, head, regs, DEFAULT_REGISTRY, check, args) is None


class TestDistributedPlan:
    def test_triggers_indexed(self):
        plan = DistributedPlan(parse_program(
            "a(X) :- b(X), not c(X). d(X) :- b(X)."
        ))
        assert len(plan.positive_triggers["b"]) == 2
        assert len(plan.negative_triggers["c"]) == 1
        assert plan.consumed("b") and plan.consumed("c")
        assert not plan.consumed("a") or plan.consumed("d") is False

    def test_self_join_two_occurrences(self):
        plan = DistributedPlan(parse_program("p(X, Y) :- r(X, Z), r(Z, Y)."))
        assert len(plan.positive_triggers["r"]) == 2

    def test_idb_edb_split(self):
        plan = DistributedPlan(parse_program("a(X) :- b(X). c(X) :- a(X)."))
        assert plan.idb == {"a", "c"}
        assert plan.edb == {"b"}

    def test_aggregate_rule_derives_valuations(self):
        """An aggregate rule compiles like any other: its results are
        valuation facts — the group, then the named body variables —
        homed by the group's leading arguments."""
        plan = DistributedPlan(parse_program("c(S, count(_)) :- r(S, X, _)."))
        (rp,) = plan.rule_plans
        assert rp.head.predicate == "c#r0" == rp.aggregate.valuation
        assert [repr(a) for a in rp.head.args] == ["S", "S", "X"]
        assert rp.aggregate.width == 1
        assert plan.idb == {"c"}

    def test_unsupported_class_needs_flag(self):
        program = parse_program("w(X) :- m(X, Y), not w(Y).")
        with pytest.raises(PlanError):
            DistributedPlan(program)
        plan = DistributedPlan(program, allow_local_nonrecursive=True)
        assert plan.analysis.program_class is (
            ProgramClass.LOCALLY_NONRECURSIVE_REQUIRED
        )

    def test_xy_accepted(self):
        program = parse_program(
            """
            hp(Y, D + 1) :- h(Y, Dp), D + 1 > Dp, h(X, D), g(X, Y).
            h(Y, D + 1) :- g(X, Y), h(X, D), not hp(Y, D + 1).
            """
        )
        plan = DistributedPlan(program)
        assert plan.analysis.program_class is ProgramClass.XY_STRATIFIED

    def test_unsafe_rejected(self):
        from repro.core.errors import SafetyError

        with pytest.raises(SafetyError):
            DistributedPlan(parse_program("p(X, Y) :- q(X)."))
