"""Term representation for the deductive language.

The paper's language is Datalog extended with *function symbols*: an
argument of a predicate may be an arbitrary term, where a term is a
constant, a variable, or ``f(t1, ..., tn)`` for a function symbol ``f``
and terms ``t_i`` (Section II-B).  Lists (used in Example 2 for vehicle
trajectories) are syntactic sugar over the binary function symbol
``cons`` and the constant ``nil``, so the join machinery needs no special
cases for them.

Terms are immutable and hashable so they can live in sets and serve as
dictionary keys (tuple stores index on ground terms).
"""

from __future__ import annotations

from decimal import Decimal
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .errors import EvaluationError

#: Python values allowed inside constants.
ConstValue = Union[int, float, str, bool, tuple, frozenset, None]


#: Identifiers the lexer reads as keywords or operators, not symbols.
_KEYWORDS = frozenset(("not", "NOT", "mod"))


def spell_value(value: object) -> str:
    """``value`` as :mod:`repro.core.parser` reads it back: a string
    bare when it lexes as that one symbol (a lowercase-initial
    identifier, not a keyword), else in double quotes; a tuple in the
    parser's tuple syntax, its items spelled the same way; ``True`` and
    ``False`` as ``1`` and ``0`` (equal constants: a constant compares
    and hashes by value); a float positionally, from its shortest repr
    (``1e-05`` as ``0.00001``, ``1e+16`` as ``10000000000000000.0``).
    A string holding ``"`` or a newline, a tuple of fewer than two
    items, and ``inf`` or ``nan`` have no spelling (the lexer has no
    escapes and no non-finite numbers)."""
    if isinstance(value, str):
        bare = (
            value[:1].isalpha() and not value[0].isupper()
            and all(c.isalnum() or c == "_" for c in value)
            and value not in _KEYWORDS
        )
        return value if bare else f'"{value}"'
    if isinstance(value, tuple):
        return f"({', '.join(map(spell_value, value))})"
    if isinstance(value, bool):
        return "1" if value else "0"
    spelled = repr(value)
    if isinstance(value, float) and "e" in spelled:
        spelled = format(Decimal(spelled), "f")
        if "." not in spelled:
            spelled += ".0"
    return spelled


class Term:
    """Abstract base class for all terms."""

    __slots__ = ()

    def is_ground(self) -> bool:
        """Return True if the term contains no variables."""
        raise NotImplementedError

    def variables(self) -> Iterator["Variable"]:
        """Yield every variable occurrence in the term (with repeats)."""
        raise NotImplementedError

    def substitute(self, subst: "Substitution") -> "Term":
        """Return the term with variables replaced per ``subst``."""
        raise NotImplementedError


class Constant(Term):
    """A ground atomic value: number, string, symbol, coordinate tuple, ...

    Symbols (e.g. ``enemy``) and strings are both represented as Python
    strings; the parser quotes strings but both compare equal if their
    payloads match, which matches Datalog's untyped-constant semantics.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: ConstValue):
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Constant is immutable")

    def __reduce__(self):
        # The immutability guard also blocks pickle's slot restore;
        # rebuild through the constructor instead (terms travel inside
        # border-crossing records between shard worker processes).
        return (Constant, (self.value,))

    def is_ground(self) -> bool:
        return True

    def variables(self) -> Iterator["Variable"]:
        return iter(())

    def substitute(self, subst: "Substitution") -> "Term":
        return self

    def __eq__(self, other) -> bool:
        return isinstance(other, Constant) and self.value == other.value

    def __hash__(self) -> int:
        # Terms are hashed constantly (relation membership, derivation
        # stores, the intern table), so the hash is computed once and
        # cached.  object.__setattr__ bypasses the immutability guard.
        try:
            return self._hash
        except AttributeError:
            h = hash(("const", self.value))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return spell_value(self.value)


class Variable(Term):
    """A logic variable.  Names starting with ``_`` are anonymous."""

    __slots__ = ("name",)

    _fresh_counter = 0

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("Variable is immutable")

    def __reduce__(self):
        return (Variable, (self.name,))

    @classmethod
    def fresh(cls, hint: str = "V") -> "Variable":
        """Return a variable with a globally unique name."""
        cls._fresh_counter += 1
        return cls(f"_{hint}{cls._fresh_counter}")

    @property
    def is_anonymous(self) -> bool:
        return self.name.startswith("_")

    def is_ground(self) -> bool:
        return False

    def variables(self) -> Iterator["Variable"]:
        yield self

    def substitute(self, subst: "Substitution") -> "Term":
        bound = subst.get(self)
        if bound is None:
            return self
        # Follow chains so X->Y, Y->c resolves to c.
        if isinstance(bound, Variable) and bound in subst:
            return bound.substitute(subst)
        return bound.substitute(subst) if not bound.is_ground() else bound

    def __eq__(self, other) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("var", self.name))

    def __repr__(self) -> str:
        return self.name


class FunctionTerm(Term):
    """A compound term ``f(t1, ..., tn)``.

    Also carries arithmetic expressions (functors ``+ - * / mod min max``)
    which :func:`repro.core.builtins.eval_arith` evaluates once ground,
    and list cells (functor ``cons``).
    """

    __slots__ = ("functor", "args")

    def __init__(self, functor: str, args: Iterable[Term]):
        object.__setattr__(self, "functor", functor)
        object.__setattr__(self, "args", tuple(args))
        for a in self.args:
            if not isinstance(a, Term):
                raise TypeError(f"FunctionTerm argument {a!r} is not a Term")

    def __setattr__(self, name, value):
        raise AttributeError("FunctionTerm is immutable")

    def __reduce__(self):
        return (FunctionTerm, (self.functor, self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    def is_ground(self) -> bool:
        return all(a.is_ground() for a in self.args)

    def variables(self) -> Iterator["Variable"]:
        for a in self.args:
            yield from a.variables()

    def substitute(self, subst: "Substitution") -> "Term":
        if self.is_ground():
            return self
        return FunctionTerm(self.functor, [a.substitute(subst) for a in self.args])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FunctionTerm)
            and self.functor == other.functor
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return hash(("fn", self.functor, self.args))

    def __repr__(self) -> str:
        if self.functor == "cons":
            return _format_list(self)
        if self.functor in ARITH_FUNCTORS and len(self.args) == 2:
            return f"({self.args[0]!r} {self.functor} {self.args[1]!r})"
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.functor}({inner})"


#: Functors treated as arithmetic operators by the evaluator.
ARITH_FUNCTORS = frozenset({"+", "-", "*", "/", "//", "mod", "min", "max", "abs", "neg"})

#: The empty list.
NIL = Constant("nil")

# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------


class Substitution(Dict[Variable, Term]):
    """A mapping from variables to terms.

    A plain dict subclass: keys are :class:`Variable`, values are
    :class:`Term`.  ``resolve`` walks binding chains.
    """

    def resolve(self, term: Term) -> Term:
        """Fully apply this substitution to ``term``."""
        return term.substitute(self)

    def extended(self, var: Variable, term: Term) -> "Substitution":
        """Return a copy with one extra binding."""
        new = Substitution(self)
        new[var] = term
        return new


# ---------------------------------------------------------------------------
# List helpers (Example 2: trajectories as lists)
# ---------------------------------------------------------------------------


def make_list(elements: Iterable[Term], tail: Term = NIL) -> Term:
    """Build a cons-list term from ``elements`` (right-folded onto ``tail``)."""
    result = tail
    for el in reversed(list(elements)):
        result = FunctionTerm("cons", (el, result))
    return result


def is_list_term(term: Term) -> bool:
    """True for ``nil`` or any ``cons`` cell."""
    return term == NIL or (isinstance(term, FunctionTerm) and term.functor == "cons")


def list_elements(term: Term) -> List[Term]:
    """Flatten a ground cons-list term into a Python list of terms.

    Raises ``EvaluationError`` on improper lists (tail that is neither
    ``nil`` nor a cons cell).
    """
    out: List[Term] = []
    cur = term
    while cur != NIL:
        if not (isinstance(cur, FunctionTerm) and cur.functor == "cons" and cur.arity == 2):
            raise EvaluationError(f"not a proper list: {term!r}")
        out.append(cur.args[0])
        cur = cur.args[1]
    return out


def _format_list(term: FunctionTerm) -> str:
    parts: List[str] = []
    cur: Term = term
    while isinstance(cur, FunctionTerm) and cur.functor == "cons" and cur.arity == 2:
        parts.append(repr(cur.args[0]))
        cur = cur.args[1]
    if cur == NIL:
        return "[" + ", ".join(parts) + "]"
    return "[" + ", ".join(parts) + " | " + repr(cur) + "]"


# ---------------------------------------------------------------------------
# Convenience coercion
# ---------------------------------------------------------------------------


def to_term(value) -> Term:
    """Coerce a Python value (or Term) into a Term.

    Strings become constants; to get a variable, pass a :class:`Variable`
    or use the parser.  Tuples/lists become constant tuples (handy for
    coordinates) unless they contain Terms, in which case a cons-list is
    built.
    """
    if isinstance(value, Term):
        return value
    if isinstance(value, (list, tuple)) and any(isinstance(v, Term) for v in value):
        return make_list([to_term(v) for v in value])
    if isinstance(value, list):
        return make_list([to_term(v) for v in value])
    if isinstance(value, tuple):
        return Constant(tuple(_freeze(v) for v in value))
    return Constant(value)


def _freeze(value):
    if isinstance(value, Term):
        raise TypeError("cannot embed Term inside constant tuple")
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def term_size(term: Term) -> int:
    """Number of symbols in a term — used by the network byte-cost model."""
    if isinstance(term, FunctionTerm):
        return 1 + sum(term_size(a) for a in term.args)
    return 1
