"""Tests for safety checking and stratification analysis."""

import pytest

from repro.core.errors import SafetyError, StratificationError
from repro.core.parser import parse_program, parse_rule
from repro.core.safety import check_program_safety, check_rule_safety, safe_variables
from repro.core.stratify import (
    NONMONOTONE_BUILTINS,
    ProgramClass,
    classify,
    dependency_graph,
    find_xy_stratification,
    is_recursive,
    recursive_components,
    rule_releases,
    stratify,
)
from repro.core.terms import Variable

LOGICH = """
    h(a, a, 0).
    h(a, X, 1) :- g(a, X).
    hp(Y, D + 1) :- h(_, Y, Dp), D + 1 > Dp, h(_, X, D), g(X, Y).
    h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
"""


class TestSafety:
    def test_safe_simple(self):
        check_rule_safety(parse_rule("p(X) :- q(X)."))

    def test_unbound_head_variable(self):
        with pytest.raises(SafetyError):
            check_rule_safety(parse_rule("p(X, Y) :- q(X)."))

    def test_variable_only_in_negated(self):
        with pytest.raises(SafetyError):
            check_rule_safety(parse_rule("p(X) :- q(X), not r(Y)."))

    def test_anonymous_in_negated_allowed(self):
        check_rule_safety(parse_rule("p(X) :- q(X), not r(X, _)."))

    def test_anonymous_in_head_rejected(self):
        with pytest.raises(SafetyError):
            check_rule_safety(parse_rule("p(_) :- q(X)."))

    def test_assignment_makes_safe(self):
        check_rule_safety(parse_rule("p(D1) :- q(D), D1 = D + 1."))

    def test_assignment_chain(self):
        check_rule_safety(parse_rule("p(D2) :- q(D), D1 = D + 1, D2 = D1 * 2."))

    def test_assignment_from_unbound_rejected(self):
        with pytest.raises(SafetyError):
            check_rule_safety(parse_rule("p(D1) :- q(D), D1 = Z + 1."))

    def test_comparison_with_unbound_rejected(self):
        with pytest.raises(SafetyError):
            check_rule_safety(parse_rule("p(X) :- q(X), Y < 3."))

    def test_safe_variables_set(self):
        rule = parse_rule("p(X, D1) :- q(X, D), D1 = D + 1.")
        names = {v.name for v in safe_variables(rule)}
        assert names == {"X", "D", "D1"}

    def test_program_safety(self):
        check_program_safety(parse_program("p(X) :- q(X). r(Y) :- p(Y)."))


class TestDependencyGraph:
    def test_edges_and_negation_flag(self):
        program = parse_program("p(X) :- q(X), not r(X).")
        graph = dependency_graph(program)
        assert graph["q"] == {"p": False} and graph["r"] == {"p": True}
        assert graph["p"] == {}

    def test_aggregation_counts_as_negative(self):
        program = parse_program("c(count(_)) :- obs(X).")
        graph = dependency_graph(program)
        assert graph["obs"]["c"]


class TestRecursion:
    def test_nonrecursive(self):
        assert not is_recursive(parse_program("p(X) :- q(X)."))

    def test_self_recursion(self):
        program = parse_program("p(X, Z) :- p(X, Y), e(Y, Z). p(X, Y) :- e(X, Y).")
        assert recursive_components(program) == [{"p"}]

    def test_mutual_recursion(self):
        program = parse_program(
            "even(X) :- zero(X). even(X) :- odd(Y), succ(Y, X). odd(X) :- even(Y), succ(Y, X)."
        )
        assert {"even", "odd"} in recursive_components(program)


class TestStratify:
    def test_two_strata(self):
        program = parse_program("p(X) :- q(X), not r(X). r(X) :- s(X).")
        strata = stratify(program)
        level = {pred: i for i, ps in enumerate(strata) for pred in ps}
        assert level["r"] < level["p"]
        assert level["s"] <= level["r"]

    def test_unstratifiable(self):
        program = parse_program("p(X) :- q(X), not p(X).")
        with pytest.raises(StratificationError):
            stratify(program)

    def test_positive_recursion_single_stratum(self):
        program = parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).")
        strata = stratify(program)
        level = {pred: i for i, ps in enumerate(strata) for pred in ps}
        assert level["t"] == level["e"]

    def test_negation_below_recursion(self):
        program = parse_program(
            """
            good(X) :- node(X), not bad(X).
            reach(X) :- start(X).
            reach(Y) :- reach(X), e(X, Y), good(Y).
            """
        )
        strata = stratify(program)
        level = {pred: i for i, ps in enumerate(strata) for pred in ps}
        assert level["bad"] < level["good"] <= level["reach"]


class TestClassify:
    def test_nonrecursive(self):
        assert (
            classify(parse_program("p(X) :- q(X).")).program_class
            is ProgramClass.NONRECURSIVE
        )

    def test_positive_recursive(self):
        program = parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).")
        assert classify(program).program_class is ProgramClass.POSITIVE_RECURSIVE

    def test_stratified(self):
        program = parse_program(
            "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z). iso(X) :- v(X), not t(X, X)."
        )
        assert classify(program).program_class is ProgramClass.STRATIFIED

    def test_logich_is_xy_stratified(self):
        analysis = classify(parse_program(LOGICH))
        assert analysis.program_class is ProgramClass.XY_STRATIFIED
        assert analysis.xy.stage_position == {"h": 2, "hp": 1}
        # hp must be saturated before h within a stage
        assert analysis.xy.priority["hp"] < analysis.xy.priority["h"]

    def test_hopeless_program(self):
        # win(X) :- move(X, Y), not win(Y): genuinely non-XY
        program = parse_program("win(X) :- move(X, Y), not win(Y).")
        analysis = classify(program)
        assert analysis.program_class is ProgramClass.LOCALLY_NONRECURSIVE_REQUIRED


class TestXYDetection:
    def test_simple_counter(self):
        program = parse_program(
            """
            cnt(0).
            cnt(T + 1) :- cnt(T), tick(T), not stop(T + 1).
            stop(T + 1) :- cnt(T), bound(B), T + 1 > B.
            """
        )
        xy = find_xy_stratification(program)
        assert xy is not None
        assert xy.stage_position["cnt"] == 0

    def test_no_stage_argument(self):
        program = parse_program("p(X) :- q(X), not p(X).")
        assert find_xy_stratification(program) is None

    def test_logicj(self):
        # The improved shortest-path program (Section VI): J carries
        # only (node, depth).
        program = parse_program(
            """
            j(a, 0).
            jp(Y, D + 1) :- j(Y, Dp), D + 1 > Dp, j(X, D), g(X, Y).
            j(Y, D + 1) :- g(X, Y), j(X, D), not jp(Y, D + 1).
            """
        )
        xy = find_xy_stratification(program)
        assert xy is not None
        assert xy.stage_position == {"j": 1, "jp": 1}


def releases_by_head(text, **kwargs):
    program = parse_program(text)
    releases = rule_releases(program, **kwargs)
    return {rule.head.predicate: releases[rule.rule_id] for rule in program.rules}


class TestRuleReleases:
    """The per-rule release decision behind pipelined mode: None when a
    rule streams, else why it keeps Theorem 3's delay."""

    def test_monotone_program_streams(self):
        assert releases_by_head(
            "tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z)."
        ) == {"tc": None}

    def test_barrier_mode_holds_every_rule(self):
        assert releases_by_head(
            "p(X) :- q(X). r(X) :- p(X), not s(X).", mode="barrier"
        ) == {"p": "barrier", "r": "barrier"}

    def test_guarded_negation_holds_its_cone(self):
        assert releases_by_head(
            """
            reach(Y) :- move(X, Y).
            lose(X) :- move(X, Y), not reach(X).
            pair(A, B) :- p(A, K), q(B, K).
            """
        ) == {"reach": "feeds reach", "lose": "negation", "pair": None}

    def test_feeds_names_the_sensitive_predicate(self):
        assert releases_by_head(
            """
            a(X) :- e(X).
            b(X) :- a(X).
            d(X) :- f(X), not b(X).
            """
        ) == {"a": "feeds b", "b": "feeds b", "d": "negation"}

    def test_negation_through_recursion_holds_only_the_cycle(self):
        assert releases_by_head(
            "win(X) :- move(X, Y), not win(Y). top(X) :- win(X)."
        ) == {"win": "negation", "top": None}

    def test_wildcard_negation(self):
        assert releases_by_head(
            """
            linked(X, Y) :- edge(X, Y).
            lonely(X) :- node(X), not linked(X, _).
            top(X) :- lonely(X).
            """
        ) == {"linked": "feeds linked", "lonely": "negation", "top": None}

    def test_aggregation_holds(self):
        assert releases_by_head(
            "path(Y, D) :- hop(Y, D). shortest(Y, min(D)) :- path(Y, D)."
        ) == {"path": "feeds path", "shortest": "aggregation"}

    def test_multi_pass_holds_alone(self):
        # A fixed-order join holds itself; what feeds and consumes it
        # may still stream.
        program = parse_program(
            """
            r(K, A) :- r0(K, A).
            j(K, A, B, C) :- r(K, A), s(K, B), t(K, C).
            top(K) :- j(K, A, B, C).
            """
        )
        j = program.rules[1].rule_id
        releases = rule_releases(program, multi_pass={j})
        assert releases == {rule.rule_id: None for rule in program.rules} | {
            j: "multi-pass"
        }

    def test_windowed_predicates_hold_their_feeders(self):
        assert releases_by_head(
            """
            tc(X, Y) :- e(X, Y).
            tc(X, Z) :- e(X, Y), tc(Y, Z).
            far(X) :- tc(X, Y), tc(Y, X).
            """,
            windowed={"tc"},
        ) == {"tc": "feeds tc", "far": None}

    def test_nonmonotone_builtin_holds(self, monkeypatch):
        # The hook set ships empty; registering a built-in as
        # non-monotone must hold the rules calling it and their feeders.
        text = "q(X) :- r(X). p(X) :- q(X), X > 3."
        assert releases_by_head(text) == {"q": None, "p": None}
        import sys
        stratify_mod = sys.modules["repro.core.stratify"]
        monkeypatch.setattr(stratify_mod, "NONMONOTONE_BUILTINS", {">"})
        assert releases_by_head(text) == {
            "q": "feeds q", "p": "nonmonotone-builtin",
        }

    def test_nonmonotone_builtins_hook_default_empty(self):
        assert NONMONOTONE_BUILTINS == set()
