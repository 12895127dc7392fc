"""Built-in predicates and functions.

The framework embeds local arithmetic computations (signal processing,
distance computations, trajectory geometry, ...) in *built-ins* written
in procedural code (Section II-B).  Built-ins are evaluated locally at a
node once their arguments are bound, so they never affect the
communication cost of the translated distributed code.

Two kinds are supported:

* **functions** — appear inside terms and return a value, e.g.
  ``dist(L1, L2)``;
* **predicates** — appear as subgoals and return a truth value, e.g.
  ``close(R1, R2)``.

A default registry pre-populates the geometry helpers used by the
paper's examples.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterator, Optional

from .ast import BuiltinLiteral
from .errors import BuiltinError, EvaluationError
from .terms import (
    ARITH_FUNCTORS,
    Constant,
    FunctionTerm,
    NIL,
    Substitution,
    Term,
    Variable,
    is_list_term,
    list_elements,
)


class BuiltinRegistry:
    """Registry of user/system built-in functions and predicates."""

    def __init__(self, include_standard: bool = True):
        self._functions: Dict[str, Callable[..., Any]] = {}
        self._predicates: Dict[str, Callable[..., bool]] = {}
        if include_standard:
            register_standard_library(self)

    def register_function(self, name: str, fn: Callable[..., Any]) -> None:
        """Register ``name`` as a term-level function."""
        if name in ARITH_FUNCTORS:
            raise BuiltinError(f"cannot shadow arithmetic functor {name!r}")
        self._functions[name] = fn

    def register_predicate(self, name: str, fn: Callable[..., bool]) -> None:
        """Register ``name`` as a boolean subgoal predicate."""
        self._predicates[name] = fn

    def function(self, name: str) -> Optional[Callable[..., Any]]:
        return self._functions.get(name)

    def predicate(self, name: str) -> Optional[Callable[..., bool]]:
        return self._predicates.get(name)

    def has_predicate(self, name: str) -> bool:
        return name in self._predicates

    def copy(self) -> "BuiltinRegistry":
        clone = BuiltinRegistry(include_standard=False)
        clone._functions.update(self._functions)
        clone._predicates.update(self._predicates)
        return clone


def register_standard_library(registry: BuiltinRegistry) -> None:
    """Install the standard geometry/utility built-ins.  (All named
    module-level functions, never lambdas, so a registry riding inside
    a shard checkpoint pickles.)"""
    registry.register_function("dist", _dist)
    registry.register_function("manhattan", _manhattan)
    registry.register_function("len", _length)
    registry.register_function("first", _first)
    registry.register_function("last", _last)
    registry.register_predicate("true", _true)
    registry.register_predicate("false", _false)


def _coords(value: Any) -> tuple:
    if not isinstance(value, tuple) or len(value) < 2:
        raise BuiltinError(f"expected a coordinate tuple, got {value!r}")
    return value


def _dist(a: Any, b: Any) -> float:
    a, b = _coords(a), _coords(b)
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def _manhattan(a: Any, b: Any) -> float:
    a, b = _coords(a), _coords(b)
    return float(sum(abs(x - y) for x, y in zip(a, b)))


def _length(value: Any) -> int:
    try:
        return len(value)
    except TypeError as exc:
        raise BuiltinError(f"len() of non-sequence {value!r}") from exc


def _first(xs: Any) -> Any:
    return xs[0]


def _last(xs: Any) -> Any:
    return xs[-1]


def _true() -> bool:
    return True


def _false() -> bool:
    return False


#: Shared default registry used when none is supplied.
DEFAULT_REGISTRY = BuiltinRegistry()


# ---------------------------------------------------------------------------
# Term evaluation
# ---------------------------------------------------------------------------

_ARITH_IMPL: Dict[str, Callable[..., Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "//": lambda a, b: a // b,
    "mod": lambda a, b: a % b,
    "min": min,
    "max": max,
    "abs": abs,
    "neg": lambda a: -a,
}


def eval_term(term: Term, registry: BuiltinRegistry = DEFAULT_REGISTRY) -> Any:
    """Evaluate a ground term to a Python value.

    Constants evaluate to their payload.  Arithmetic functors and
    registered functions are applied to their evaluated arguments.
    Cons-lists evaluate to Python lists.  Uninterpreted function terms
    evaluate to themselves (symbolic values), so ``=``/``!=`` still work
    on them structurally.
    """
    if isinstance(term, Constant):
        return term.value
    if isinstance(term, Variable):
        raise EvaluationError(f"cannot evaluate unbound variable {term!r}")
    assert isinstance(term, FunctionTerm)
    if term.functor == "cons":
        return [eval_term(el, registry) for el in list_elements(term)]
    args = [eval_term(a, registry) for a in term.args]
    if term.functor in _ARITH_IMPL:
        return apply_arith(term.functor, args, term)
    fn = registry.function(term.functor)
    if fn is not None:
        return fn(*args)
    # Uninterpreted function symbol: a symbolic value.  Rebuild it from
    # the evaluated arguments so nested arithmetic normalizes, e.g.
    # f(D + 1) with D = 2 becomes f(3).
    return FunctionTerm(term.functor, [value_to_term(a) for a in args])


def apply_arith(functor: str, args: list, term: Term) -> Any:
    """Apply an arithmetic functor to its evaluated arguments; ``term``
    only names the expression in the error."""
    if not all(isinstance(a, (int, float)) for a in args):
        raise BuiltinError(
            f"arithmetic on non-numeric arguments in {term!r}"
        )
    return _ARITH_IMPL[functor](*args)


def value_to_term(value: Any) -> Term:
    """Wrap an evaluated Python value back into a Term for binding."""
    if isinstance(value, Term):
        return value
    if isinstance(value, list):
        from .terms import make_list

        return make_list([value_to_term(v) for v in value])
    if isinstance(value, tuple):
        return Constant(value)
    return Constant(value)


def normalize_partial(term: Term, registry: BuiltinRegistry = DEFAULT_REGISTRY) -> Term:
    """Evaluate the maximal ground subterms of ``term``.

    Used to normalize subgoal patterns before matching them against
    stored tuples: ``hp(Y, D + 1)`` with ``D = 0`` becomes ``hp(Y, 1)``
    so it matches the normalized stored form.  Variables (and subterms
    containing them) are left intact.
    """
    if term.is_ground():
        return value_to_term(eval_term(term, registry))
    if isinstance(term, FunctionTerm):
        return FunctionTerm(
            term.functor, [normalize_partial(a, registry) for a in term.args]
        )
    return term


def _comparable(value: Any) -> Any:
    """Normalize a value for comparison: terms compare structurally."""
    if isinstance(value, Term):
        return ("term", repr(value))
    if isinstance(value, bool):
        return ("bool", value)
    return value


def eval_builtin(
    literal: BuiltinLiteral,
    subst: Substitution,
    registry: BuiltinRegistry = DEFAULT_REGISTRY,
) -> Iterator[Substitution]:
    """Evaluate a built-in literal under ``subst``.

    Yields zero or one extended substitutions.  ``=`` may *bind* a
    variable (assignment, e.g. ``D1 = D + 1``); every other built-in is
    a pure test and requires its variables bound.
    """
    lit = literal.substitute(subst)
    if lit.name == "=" and not lit.negated:
        yield from _eval_assign(lit, subst, registry)
        return
    for arg in lit.args:
        if not arg.is_ground():
            raise EvaluationError(
                f"built-in {literal!r} has unbound arguments under {dict(subst)!r}"
            )
    if lit.is_comparison:
        holds = compare_values(
            lit.name, eval_term(lit.args[0], registry), eval_term(lit.args[1], registry)
        )
    else:
        fn = registry.predicate(lit.name)
        if fn is None:
            raise BuiltinError(f"unknown built-in predicate {lit.name!r}")
        holds = bool(fn(*[eval_term(a, registry) for a in lit.args]))
    if holds != lit.negated:
        yield subst


def _eval_assign(
    lit: BuiltinLiteral, subst: Substitution, registry: BuiltinRegistry
) -> Iterator[Substitution]:
    left, right = lit.args
    if isinstance(left, Variable) and right.is_ground():
        yield subst.extended(left, value_to_term(eval_term(right, registry)))
        return
    if isinstance(right, Variable) and left.is_ground():
        yield subst.extended(right, value_to_term(eval_term(left, registry)))
        return
    if left.is_ground() and right.is_ground():
        if _comparable(eval_term(left, registry)) == _comparable(
            eval_term(right, registry)
        ):
            yield subst
        return
    # Structural unification fallback (both sides contain variables).
    from .unify import unify

    result = unify(left, right, subst)
    if result is not None:
        yield result


def compare_values(name: str, left: Any, right: Any) -> bool:
    """The comparison ``left name right`` over evaluated values."""
    lc, rc = _comparable(left), _comparable(right)
    if name == "=":
        return lc == rc
    if name == "!=":
        return lc != rc
    if isinstance(lc, tuple) or isinstance(rc, tuple):
        raise BuiltinError(
            f"ordered comparison {name!r} on non-numeric values "
            f"{left!r}, {right!r}"
        )
    try:
        if name == "<":
            return left < right
        if name == "<=":
            return left <= right
        if name == ">":
            return left > right
        if name == ">=":
            return left >= right
    except TypeError as exc:  # a number beside a string
        raise BuiltinError(
            f"ordered comparison {name!r} on incomparable values "
            f"{left!r}, {right!r}"
        ) from exc
    raise BuiltinError(f"unknown comparison {name!r}")
