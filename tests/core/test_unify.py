"""Unit and property tests for unification and matching."""

import pytest
from hypothesis import given, strategies as st

from repro.core.terms import Constant, FunctionTerm, Substitution, Variable, make_list
from repro.core.unify import match, match_sequences, unify


def X():
    return Variable("X")


class TestUnify:
    def test_identical_constants(self):
        assert unify(Constant(1), Constant(1)) == Substitution()

    def test_mismatched_constants(self):
        assert unify(Constant(1), Constant(2)) is None

    def test_variable_binds(self):
        result = unify(X(), Constant(5))
        assert result is not None
        assert result[X()] == Constant(5)

    def test_symmetric_binding(self):
        result = unify(Constant(5), X())
        assert result is not None and result[X()] == Constant(5)

    def test_function_terms(self):
        t1 = FunctionTerm("f", (X(), Constant(2)))
        t2 = FunctionTerm("f", (Constant(1), Variable("Y")))
        result = unify(t1, t2)
        assert result is not None
        assert result[X()] == Constant(1)
        assert result[Variable("Y")] == Constant(2)

    def test_functor_mismatch(self):
        assert unify(FunctionTerm("f", (X(),)), FunctionTerm("g", (X(),))) is None

    def test_arity_mismatch(self):
        t1 = FunctionTerm("f", (X(),))
        t2 = FunctionTerm("f", (X(), X()))
        assert unify(t1, t2) is None

    def test_shared_variable_consistency(self):
        t1 = FunctionTerm("f", (X(), X()))
        t2 = FunctionTerm("f", (Constant(1), Constant(2)))
        assert unify(t1, t2) is None

    def test_var_to_var(self):
        result = unify(X(), Variable("Y"))
        assert result is not None

    def test_occurs_check(self):
        t = FunctionTerm("f", (X(),))
        assert unify(X(), t, occurs_check=True) is None
        assert unify(X(), t, occurs_check=False) is not None

    def test_input_subst_not_mutated(self):
        base = Substitution()
        unify(X(), Constant(1), base)
        assert base == Substitution()

    def test_respects_existing_binding(self):
        base = Substitution({X(): Constant(1)})
        assert unify(X(), Constant(2), base) is None
        assert unify(X(), Constant(1), base) is not None


class TestMatch:
    def test_binds_pattern_variable(self):
        result = match(X(), Constant(7))
        assert result is not None and result[X()] == Constant(7)

    def test_constant_match(self):
        assert match(Constant(1), Constant(1)) is not None
        assert match(Constant(1), Constant(2)) is None

    def test_does_not_bind_ground_side(self):
        # match is one-way: a "variable" on the ground side is treated
        # as an opaque value and cannot absorb a pattern constant.
        assert match(Constant(1), Variable("Y")) is None

    def test_nested(self):
        pattern = FunctionTerm("f", (X(), make_list([Variable("Y")])))
        ground = FunctionTerm("f", (Constant(1), make_list([Constant(2)])))
        result = match(pattern, ground)
        assert result is not None
        assert result[X()] == Constant(1)
        assert result[Variable("Y")] == Constant(2)

    def test_shared_variable(self):
        pattern = FunctionTerm("f", (X(), X()))
        assert match(pattern, FunctionTerm("f", (Constant(1), Constant(1)))) is not None
        assert match(pattern, FunctionTerm("f", (Constant(1), Constant(2)))) is None

    def test_match_sequences(self):
        result = match_sequences([X(), Constant(2)], [Constant(1), Constant(2)])
        assert result is not None and result[X()] == Constant(1)

    def test_match_sequences_length(self):
        assert match_sequences([X()], []) is None

    def test_match_sequences_binds_across_positions(self):
        # A variable bound at one position must match at the next (an
        # atom's argument list: p(X, X)).
        assert match_sequences([X(), X()], [Constant(1), Constant(2)]) is None
        result = match_sequences([X(), X()], [Constant(3), Constant(3)])
        assert result is not None and result[X()] == Constant(3)

    def test_match_sequences_extends_without_mutating(self):
        base = Substitution({X(): Constant(1)})
        assert match_sequences([X()], [Constant(2)], base) is None
        result = match_sequences([Variable("Y")], [Constant(2)], base)
        assert result[X()] == Constant(1) and result[Variable("Y")] == Constant(2)
        assert base == Substitution({X(): Constant(1)})


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

constants = st.one_of(
    st.integers(-20, 20), st.text("ab", min_size=0, max_size=3)
).map(Constant)
variables = st.sampled_from("XYZW").map(Variable)


def terms(depth=2):
    if depth == 0:
        return st.one_of(constants, variables)
    return st.one_of(
        constants,
        variables,
        st.builds(
            FunctionTerm,
            st.sampled_from(["f", "g"]),
            st.lists(terms(depth - 1), min_size=1, max_size=3).map(tuple),
        ),
    )


ground_terms = st.deferred(
    lambda: st.one_of(
        constants,
        st.builds(
            FunctionTerm,
            st.sampled_from(["f", "g"]),
            st.lists(constants, min_size=1, max_size=3).map(tuple),
        ),
    )
)


@given(terms())
def test_unify_reflexive(t):
    assert unify(t, t) is not None


@given(terms(), terms())
def test_unify_symmetric(t1, t2):
    r12 = unify(t1, t2)
    r21 = unify(t2, t1)
    assert (r12 is None) == (r21 is None)


@given(terms(), terms())
def test_unifier_is_a_unifier(t1, t2):
    # occurs_check avoids cyclic substitutions (X = f(X)), which cannot
    # be applied to a fixpoint.
    result = unify(t1, t2, occurs_check=True)
    if result is not None:
        # Applying repeatedly reaches a fixpoint where both sides agree.
        a, b = t1.substitute(result), t2.substitute(result)
        for _ in range(5):
            a, b = a.substitute(result), b.substitute(result)
        assert a == b


@given(terms(), ground_terms)
def test_match_implies_equality(pattern, ground):
    result = match(pattern, ground)
    if result is not None:
        assert pattern.substitute(result) == ground


@given(ground_terms)
def test_match_ground_reflexive(t):
    assert match(t, t) is not None
