"""Unification and one-way term matching.

The bottom-up evaluator only ever matches a *pattern* (a rule subgoal,
possibly with variables) against *ground* stored tuples — the
"term-matching operator" of Section IV-C; full unification serves the
``=`` built-in, whose sides may both carry unbound variables.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .terms import Constant, FunctionTerm, Substitution, Term, Variable


def walk(term: Term, subst: Substitution) -> Term:
    """Follow variable bindings in ``subst`` until a non-variable or free
    variable is reached (does not descend into function terms)."""
    while isinstance(term, Variable):
        bound = subst.get(term)
        if bound is None:
            return term
        term = bound
    return term


def occurs_in(var: Variable, term: Term, subst: Substitution) -> bool:
    """Occurs check: does ``var`` appear in ``term`` under ``subst``?"""
    term = walk(term, subst)
    if term == var:
        return True
    if isinstance(term, FunctionTerm):
        return any(occurs_in(var, a, subst) for a in term.args)
    return False


def unify(
    t1: Term,
    t2: Term,
    subst: Optional[Substitution] = None,
    occurs_check: bool = False,
) -> Optional[Substitution]:
    """Unify two terms, returning an extended substitution or ``None``.

    The input substitution is not mutated.
    """
    if subst is None:
        subst = Substitution()
    result = Substitution(subst)
    if _unify_into(t1, t2, result, occurs_check):
        return result
    return None


def _unify_into(t1: Term, t2: Term, subst: Substitution, occurs_check: bool) -> bool:
    t1 = walk(t1, subst)
    t2 = walk(t2, subst)
    if t1 == t2:
        return True
    if isinstance(t1, Variable):
        if occurs_check and occurs_in(t1, t2, subst):
            return False
        subst[t1] = t2
        return True
    if isinstance(t2, Variable):
        if occurs_check and occurs_in(t2, t1, subst):
            return False
        subst[t2] = t1
        return True
    if isinstance(t1, Constant) and isinstance(t2, Constant):
        return t1.value == t2.value
    if isinstance(t1, FunctionTerm) and isinstance(t2, FunctionTerm):
        if t1.functor != t2.functor or t1.arity != t2.arity:
            return False
        return all(
            _unify_into(a1, a2, subst, occurs_check)
            for a1, a2 in zip(t1.args, t2.args)
        )
    return False


def match(pattern: Term, ground: Term, subst: Optional[Substitution] = None) -> Optional[Substitution]:
    """One-way matching: bind variables of ``pattern`` so it equals ``ground``.

    ``ground`` must contain no variables (the common case when joining a
    subgoal against stored ground tuples); variables appearing there are
    treated as constants and never bound.
    """
    if subst is None:
        subst = Substitution()
    result = Substitution(subst)
    if _match_into(pattern, ground, result):
        return result
    return None


def _match_into(pattern: Term, ground: Term, subst: Substitution) -> bool:
    pattern = walk(pattern, subst)
    if isinstance(pattern, Variable):
        subst[pattern] = ground
        return True
    if isinstance(pattern, Constant):
        return isinstance(ground, Constant) and pattern.value == ground.value
    if isinstance(pattern, FunctionTerm):
        return (
            isinstance(ground, FunctionTerm)
            and pattern.functor == ground.functor
            and pattern.arity == ground.arity
            and all(_match_into(p, g, subst) for p, g in zip(pattern.args, ground.args))
        )
    return False


def match_sequences(
    patterns: Sequence[Term],
    grounds: Sequence[Term],
    subst: Optional[Substitution] = None,
) -> Optional[Substitution]:
    """One-way match a sequence of patterns against ground terms."""
    if len(patterns) != len(grounds):
        return None
    if subst is None:
        subst = Substitution()
    result = Substitution(subst)
    for p, g in zip(patterns, grounds):
        if not _match_into(p, g, result):
            return None
    return result
