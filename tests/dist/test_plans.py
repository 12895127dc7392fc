"""Tests for the distributed plan compiler."""

import pytest

from repro.core.errors import PlanError
from repro.core.parser import parse_program
from repro.core.stratify import ProgramClass
from repro.dist.plans import DistributedPlan, RulePlan


class TestRulePlan:
    def test_partitions_literals(self):
        program = parse_program(
            "p(X) :- q(X), not r(X), X > 2, s(X, _)."
        )
        rp = RulePlan(program.rules[0])
        assert [l.predicate for l in rp.positive] == ["q", "s"]
        assert [l.predicate for l in rp.negative] == ["r"]
        assert [l.name for l in rp.builtins] == [">"]
        assert rp.has_negation and rp.n_positive == 2

    def test_pure_builtin_body_rejected(self):
        # No positive relational subgoal: nothing can trigger the rule.
        program = parse_program("q(5). p(X) :- q(X).")
        rule = program.rules[0].with_id(0)
        from repro.core.ast import Rule, BuiltinLiteral
        from repro.core.terms import Constant, Variable

        bad = Rule(
            rule.head,
            [BuiltinLiteral("=", (Variable("X"), Constant(1)))],
            rule_id=0,
        )
        with pytest.raises(PlanError):
            RulePlan(bad)


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
        assert rp.width == 1
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
