"""Unit tests for the rule-language parser."""

import pytest

from repro.core.ast import Atom, BuiltinLiteral, RelLiteral
from repro.core.errors import ParseError, ProgramError
from repro.core.parser import parse_atom, parse_program, parse_rule, parse_term
from repro.core.terms import Constant, FunctionTerm, NIL, Variable, list_elements


class TestTerms:
    def test_integer(self):
        assert parse_term("42") == Constant(42)

    def test_float(self):
        assert parse_term("3.25") == Constant(3.25)

    def test_negative_number(self):
        assert parse_term("-7") == Constant(-7)

    def test_string(self):
        assert parse_term('"enemy"') == Constant("enemy")

    def test_symbol(self):
        assert parse_term("enemy") == Constant("enemy")

    def test_string_and_symbol_equal(self):
        assert parse_term('"abc"') == parse_term("abc")

    def test_variable(self):
        assert parse_term("X1") == Variable("X1")

    def test_anonymous_variables_distinct(self):
        t1, t2 = parse_term("_"), parse_term("_")
        assert t1 != t2
        assert t1.is_anonymous and t2.is_anonymous

    @pytest.mark.parametrize("text", [
        "42", "3.5", '"enemy"', "X", "f(X, 1)", "[1, 2, 3]",
        "[H | T]", "D + 1", "(3, 4)", "f(g(h(X)), [a, b])",
    ])
    def test_repr_roundtrip(self, text):
        # The shell prints terms with repr; what it prints parses back.
        term = parse_term(text)
        assert parse_term(repr(term)) == term

    def test_function_term(self):
        t = parse_term("f(X, 1)")
        assert t == FunctionTerm("f", (Variable("X"), Constant(1)))

    def test_nested_function(self):
        t = parse_term("f(g(X), h(1, 2))")
        assert isinstance(t, FunctionTerm) and t.functor == "f"

    def test_arithmetic_precedence(self):
        t = parse_term("D + 2 * 3")
        assert t == FunctionTerm(
            "+", (Variable("D"), FunctionTerm("*", (Constant(2), Constant(3))))
        )

    def test_parenthesized(self):
        t = parse_term("(D + 1) * 2")
        assert t.functor == "*"

    def test_tuple_literal(self):
        assert parse_term("(3, 4)") == Constant((3, 4))

    def test_tuple_requires_constants(self):
        with pytest.raises(ParseError):
            parse_term("(X, 4)")

    def test_empty_list(self):
        assert parse_term("[]") == NIL

    def test_list(self):
        t = parse_term("[1, 2, 3]")
        assert list_elements(t) == [Constant(1), Constant(2), Constant(3)]

    def test_list_with_tail(self):
        t = parse_term("[X | Rest]")
        assert t == FunctionTerm("cons", (Variable("X"), Variable("Rest")))

    def test_multi_head_tail(self):
        t = parse_term("[A, B | Rest]")
        assert t.args[0] == Variable("A")
        assert t.args[1].args[0] == Variable("B")
        assert t.args[1].args[1] == Variable("Rest")

    def test_unary_minus_on_var(self):
        assert parse_term("-X") == FunctionTerm("neg", (Variable("X"),))

    def test_mod_operator(self):
        assert parse_term("X mod 2") == FunctionTerm("mod", (Variable("X"), Constant(2)))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_term("1 2")


class TestAtoms:
    def test_simple(self):
        atom = parse_atom("veh(enemy, L, T)")
        assert atom.predicate == "veh"
        assert atom.arity == 3

    def test_zero_ary(self):
        assert parse_atom("alarm") == Atom("alarm", ())

    def test_uppercase_predicate_rejected(self):
        with pytest.raises(ParseError):
            parse_atom("Veh(X)")


class TestRules:
    def test_fact(self):
        rule = parse_rule("edge(a, b).")
        assert rule.head == Atom("edge", (Constant("a"), Constant("b")))
        assert rule.body == ()

    def test_body_literals(self):
        rule = parse_rule("p(X) :- q(X), r(X).")
        assert len(rule.body) == 2
        assert all(isinstance(lit, RelLiteral) for lit in rule.body)

    def test_negation(self):
        rule = parse_rule("p(X) :- q(X), not r(X).")
        assert rule.body[1].negated

    def test_uppercase_not(self):
        rule = parse_rule("p(X) :- q(X), NOT r(X).")
        assert rule.body[1].negated

    def test_comparison(self):
        rule = parse_rule("p(X) :- q(X), X <= 5.")
        lit = rule.body[1]
        assert isinstance(lit, BuiltinLiteral) and lit.name == "<="

    def test_function_in_comparison(self):
        rule = parse_rule("cov(L) :- veh(L1), dist(L, L1) <= 50.")
        lit = rule.body[1]
        assert isinstance(lit, BuiltinLiteral)
        assert lit.args[0] == FunctionTerm("dist", (Variable("L"), Variable("L1")))

    def test_assignment(self):
        rule = parse_rule("p(D1) :- q(D), D1 = D + 1.")
        lit = rule.body[1]
        assert isinstance(lit, BuiltinLiteral) and lit.name == "="

    def test_arith_in_head(self):
        rule = parse_rule("h(X, D + 1) :- g(X), h(X, D).")
        assert rule.head.args[1] == FunctionTerm("+", (Variable("D"), Constant(1)))

    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse_rule("p(X) :- q(X)")

    def test_builtin_predicate_recognized(self):
        from repro.core.builtins import BuiltinRegistry

        registry = BuiltinRegistry()
        registry.register_predicate("close", lambda a, b: True)
        rule = parse_rule("p(X, Y) :- q(X), q(Y), close(X, Y).", registry)
        assert isinstance(rule.body[2], BuiltinLiteral)

    def test_unregistered_is_relational(self):
        rule = parse_rule("p(X, Y) :- q(X), q(Y), close(X, Y).")
        assert isinstance(rule.body[2], RelLiteral)


class TestAggregates:
    def test_min_aggregate(self):
        rule = parse_rule("shortest(Y, min(D)) :- path(Y, D).")
        assert len(rule.aggregates) == 1
        spec = rule.aggregates[0]
        assert spec.function == "min"
        assert spec.position == 1
        assert spec.var == Variable("D")

    def test_count_anonymous(self):
        rule = parse_rule("total(count(_)) :- obs(X).")
        assert rule.aggregates[0].var is None

    @pytest.mark.parametrize("text", [
        "c(G, count(X)) :- r(G, X).",
        "c(G, count(_)) :- r(G, X).",
        "c(count(_)) :- r(X, Y).",
        "m(X, min(D), max(D)) :- d(X, D).",
        "s(sum(V)) :- r(K, V), not bad(K).",
        "a(G, avg(V)) :- r(G, V), V > 0.",
    ])
    def test_repr_prints_head_aggregates(self, text):
        rule = parse_rule(text)
        assert repr(rule) == text
        reparsed = parse_rule(repr(rule))
        assert (reparsed.aggregates, reparsed.body) == (rule.aggregates, rule.body)

    def test_aggregate_non_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("total(count(5)) :- obs(X).")

    def test_min_functor_in_body_is_arith(self):
        # min/max in a body term are ordinary arithmetic, not aggregates
        rule = parse_rule("p(X) :- q(X), X <= min(3, 5).")
        assert not rule.aggregates


class TestPrograms:
    def test_multiple_rules(self):
        program = parse_program(
            """
            % the classic
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).   # transitive
            """
        )
        assert len(program.rules) == 2

    def test_facts_collected(self):
        program = parse_program("edge(a, b). edge(b, c). path(X, Y) :- edge(X, Y).")
        assert len(program.facts) == 2
        assert len(program.rules) == 1

    def test_comments_ignored(self):
        program = parse_program("% nothing here\n# or here\np(X) :- q(X).")
        assert len(program.rules) == 1

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ProgramError):
            parse_program("p(X) :- q(X). p(X, Y) :- q(X), q(Y).")

    def test_empty_program(self):
        program = parse_program("   % empty\n")
        assert len(program.rules) == 0

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            parse_program('p(X) :- q("oops).')

    def test_illegal_character(self):
        with pytest.raises(ParseError):
            parse_program("p(X) :- q(X) @ r(X).")

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("p(X) :-\n  q(X) r(X).")
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("text", [
        "p(X) :- q(X), not r(X).",
        "h(X, Y, D + 1) :- g(X, Y), h(Z, X, D), not hp(Y, D + 1).",
        'cov(L) :- veh("enemy", L), dist(L, (0, 0)) <= 50.',
        "l([H | T], N) :- src(H, T, N), N > 1.",
    ])
    def test_roundtrip_repr(self, text):
        program = parse_program(text)
        reparsed = parse_program(repr(program))
        assert reparsed.rules == program.rules
