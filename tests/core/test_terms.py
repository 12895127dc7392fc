"""Unit tests for the term system."""

import pytest

from repro.core.errors import EvaluationError
from repro.core.terms import (
    Constant,
    FunctionTerm,
    NIL,
    Substitution,
    Variable,
    is_list_term,
    list_elements,
    make_list,
    term_size,
    to_term,
)


class TestConstant:
    def test_equality_by_value(self):
        assert Constant(3) == Constant(3)
        assert Constant(3) != Constant(4)
        assert Constant("a") != Constant(3)

    def test_hashable(self):
        assert len({Constant(1), Constant(1), Constant(2)}) == 2

    def test_is_ground(self):
        assert Constant("x").is_ground()

    def test_no_variables(self):
        assert list(Constant(5).variables()) == []

    def test_substitute_identity(self):
        c = Constant(7)
        assert c.substitute(Substitution()) is c

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Constant(1).value = 2

    def test_tuple_payload(self):
        assert Constant((1, 2)) == Constant((1, 2))
        assert Constant((1, 2)) != Constant((2, 1))


class TestVariable:
    def test_equality_by_name(self):
        assert Variable("X") == Variable("X")
        assert Variable("X") != Variable("Y")

    def test_not_ground(self):
        assert not Variable("X").is_ground()

    def test_variables_yields_self(self):
        v = Variable("X")
        assert list(v.variables()) == [v]

    def test_fresh_unique(self):
        names = {Variable.fresh().name for _ in range(100)}
        assert len(names) == 100

    def test_fresh_is_anonymous(self):
        assert Variable.fresh().is_anonymous

    def test_substitute_bound(self):
        v = Variable("X")
        assert v.substitute(Substitution({v: Constant(1)})) == Constant(1)

    def test_substitute_unbound(self):
        v = Variable("X")
        assert v.substitute(Substitution()) is v

    def test_substitute_chain(self):
        x, y = Variable("X"), Variable("Y")
        subst = Substitution({x: y, y: Constant(2)})
        assert x.substitute(subst) == Constant(2)


class TestFunctionTerm:
    def test_equality(self):
        t1 = FunctionTerm("f", (Constant(1), Variable("X")))
        t2 = FunctionTerm("f", (Constant(1), Variable("X")))
        assert t1 == t2

    def test_inequality_functor(self):
        assert FunctionTerm("f", (Constant(1),)) != FunctionTerm("g", (Constant(1),))

    def test_groundness(self):
        assert FunctionTerm("f", (Constant(1),)).is_ground()
        assert not FunctionTerm("f", (Variable("X"),)).is_ground()

    def test_variables_nested(self):
        t = FunctionTerm("f", (Variable("X"), FunctionTerm("g", (Variable("Y"),))))
        assert {v.name for v in t.variables()} == {"X", "Y"}

    def test_substitute(self):
        x = Variable("X")
        t = FunctionTerm("f", (x, Constant(2)))
        result = t.substitute(Substitution({x: Constant(1)}))
        assert result == FunctionTerm("f", (Constant(1), Constant(2)))

    def test_rejects_non_terms(self):
        with pytest.raises(TypeError):
            FunctionTerm("f", (42,))

    def test_arity(self):
        assert FunctionTerm("f", (Constant(1), Constant(2))).arity == 2


class TestLists:
    def test_make_empty(self):
        assert make_list([]) == NIL

    def test_roundtrip(self):
        elements = [Constant(i) for i in range(5)]
        assert list_elements(make_list(elements)) == elements

    def test_is_list_term(self):
        assert is_list_term(NIL)
        assert is_list_term(make_list([Constant(1)]))
        assert not is_list_term(Constant(1))

    def test_improper_list_raises(self):
        improper = FunctionTerm("cons", (Constant(1), Constant(2)))
        with pytest.raises(EvaluationError):
            list_elements(improper)

    def test_tail_extension(self):
        tail = make_list([Constant(2)])
        full = make_list([Constant(1)], tail)
        assert list_elements(full) == [Constant(1), Constant(2)]

    def test_repr(self):
        assert repr(make_list([Constant(1), Constant(2)])) == "[1, 2]"

    def test_repr_open_tail(self):
        t = FunctionTerm("cons", (Constant(1), Variable("T")))
        assert repr(t) == "[1 | T]"


class TestToTerm:
    def test_passthrough(self):
        v = Variable("X")
        assert to_term(v) is v

    def test_scalar(self):
        assert to_term(3) == Constant(3)
        assert to_term("abc") == Constant("abc")

    def test_tuple_to_constant(self):
        assert to_term((1, 2)) == Constant((1, 2))

    def test_nested_list_in_tuple(self):
        assert to_term((1, [2, 3])) == Constant((1, (2, 3)))

    def test_list_of_terms_becomes_cons(self):
        result = to_term([Constant(1), Constant(2)])
        assert list_elements(result) == [Constant(1), Constant(2)]

    def test_plain_list_becomes_cons(self):
        result = to_term([1, 2])
        assert list_elements(result) == [Constant(1), Constant(2)]


class TestTermSize:
    def test_atomic(self):
        assert term_size(Constant(1)) == 1
        assert term_size(Variable("X")) == 1

    def test_compound(self):
        t = FunctionTerm("f", (Constant(1), FunctionTerm("g", (Constant(2),))))
        assert term_size(t) == 4
