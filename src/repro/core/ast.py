"""Abstract syntax for deductive programs.

A *rule* is ``H :- G1, ..., Gk`` where the head ``H`` is a relational
atom and each subgoal ``Gi`` is a relational literal (possibly negated,
Section IV-B), a built-in comparison such as ``dist(L1, L2) <= 50``, or
a built-in predicate call.  Heads may contain aggregate specifications
(``max(D)``), which the evaluator implements with the all-solutions
semantics of Section IV-C.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import ProgramError
from .terms import Constant, FunctionTerm, Substitution, Term, Variable

#: Aggregate functors recognized in rule heads.
AGGREGATE_FUNCTORS = frozenset({"count", "sum", "min", "max", "avg"})

#: Comparison operators available as built-in literals.
COMPARISON_OPS = frozenset({"=", "!=", "<", "<=", ">", ">="})


class Atom:
    """A relational atom ``p(t1, ..., tn)``."""

    __slots__ = ("predicate", "args")

    def __init__(self, predicate: str, args: Iterable[Term]):
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "args", tuple(args))
        for a in self.args:
            if not isinstance(a, Term):
                raise TypeError(f"atom argument {a!r} is not a Term")

    def __setattr__(self, name, value):
        raise AttributeError("Atom is immutable")

    def __reduce__(self):
        # The immutability guard also blocks pickle's slot restore;
        # rebuild through the constructor (AST fragments may ride
        # messages across shard-worker process boundaries).
        return (Atom, (self.predicate, self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def signature(self) -> Tuple[str, int]:
        return (self.predicate, self.arity)

    def is_ground(self) -> bool:
        return all(a.is_ground() for a in self.args)

    def variables(self) -> Iterator[Variable]:
        for a in self.args:
            yield from a.variables()

    def substitute(self, subst: Substitution) -> "Atom":
        return Atom(self.predicate, [a.substitute(subst) for a in self.args])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Atom)
            and self.predicate == other.predicate
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return hash((self.predicate, self.args))

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.predicate}({inner})"


class Literal:
    """Abstract base class for rule subgoals."""

    __slots__ = ()

    negated = False

    def variables(self) -> Iterator[Variable]:
        raise NotImplementedError

    def substitute(self, subst: Substitution) -> "Literal":
        raise NotImplementedError


class RelLiteral(Literal):
    """A (possibly negated) relational subgoal."""

    __slots__ = ("atom", "negated")

    def __init__(self, atom: Atom, negated: bool = False):
        object.__setattr__(self, "atom", atom)
        object.__setattr__(self, "negated", negated)

    def __setattr__(self, name, value):
        raise AttributeError("RelLiteral is immutable")

    def __reduce__(self):
        return (RelLiteral, (self.atom, self.negated))

    @property
    def predicate(self) -> str:
        return self.atom.predicate

    def variables(self) -> Iterator[Variable]:
        return self.atom.variables()

    def substitute(self, subst: Substitution) -> "RelLiteral":
        return RelLiteral(self.atom.substitute(subst), self.negated)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RelLiteral)
            and self.atom == other.atom
            and self.negated == other.negated
        )

    def __hash__(self) -> int:
        return hash((self.atom, self.negated))

    def __repr__(self) -> str:
        return f"not {self.atom!r}" if self.negated else repr(self.atom)


class BuiltinLiteral(Literal):
    """A built-in call: a comparison (``X <= 5``, ``Y = X + 1``) or a
    registered built-in predicate (``close(R1, R2)``).

    Built-ins are always evaluated *locally* at a node once their
    arguments are sufficiently bound — this is what lets the framework
    embed arbitrary arithmetic without affecting communication cost
    (Section II-B).
    """

    __slots__ = ("name", "args", "negated")

    def __init__(self, name: str, args: Iterable[Term], negated: bool = False):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "negated", negated)

    def __setattr__(self, name, value):
        raise AttributeError("BuiltinLiteral is immutable")

    def __reduce__(self):
        return (BuiltinLiteral, (self.name, self.args, self.negated))

    @property
    def is_comparison(self) -> bool:
        return self.name in COMPARISON_OPS

    def variables(self) -> Iterator[Variable]:
        for a in self.args:
            yield from a.variables()

    def substitute(self, subst: Substitution) -> "BuiltinLiteral":
        return BuiltinLiteral(
            self.name, [a.substitute(subst) for a in self.args], self.negated
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BuiltinLiteral)
            and self.name == other.name
            and self.args == other.args
            and self.negated == other.negated
        )

    def __hash__(self) -> int:
        return hash((self.name, self.args, self.negated))

    def __repr__(self) -> str:
        prefix = "not " if self.negated else ""
        if self.is_comparison and len(self.args) == 2:
            return f"{prefix}{self.args[0]!r} {self.name} {self.args[1]!r}"
        inner = ", ".join(repr(a) for a in self.args)
        return f"{prefix}{self.name}({inner})"


class AggregateSpec:
    """An aggregate in a rule head: position, function, aggregated variable.

    ``count`` may aggregate the anonymous variable (``count(_)``), in
    which case ``var`` is None and each derivation contributes 1.
    """

    __slots__ = ("position", "function", "var")

    def __init__(self, position: int, function: str, var: Optional[Variable]):
        if function not in AGGREGATE_FUNCTORS:
            raise ProgramError(f"unknown aggregate function {function!r}")
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "function", function)
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError("AggregateSpec is immutable")

    def __reduce__(self):
        return (AggregateSpec, (self.position, self.function, self.var))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AggregateSpec)
            and (self.position, self.function, self.var)
            == (other.position, other.function, other.var)
        )

    def __hash__(self) -> int:
        return hash((self.position, self.function, self.var))

    def __repr__(self) -> str:
        return f"{self.function}({self.var!r})@{self.position}"


class Rule:
    """A deductive rule ``head :- body``.

    ``rule_id`` uniquely identifies the rule inside its program —
    derivations record it so that multiple rules with the same head
    predicate are maintained independently (Section IV-B).
    """

    __slots__ = ("head", "body", "aggregates", "rule_id", "_hash")

    def __init__(
        self,
        head: Atom,
        body: Iterable[Literal],
        aggregates: Iterable[AggregateSpec] = (),
        rule_id: Optional[int] = None,
    ):
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "aggregates", tuple(aggregates))
        object.__setattr__(self, "rule_id", rule_id)
        object.__setattr__(self, "_hash", hash((head, self.body, self.aggregates)))

    def __setattr__(self, name, value):
        raise AttributeError("Rule is immutable")

    def __reduce__(self):
        return (Rule, (self.head, self.body, self.aggregates, self.rule_id))

    def with_id(self, rule_id: int) -> "Rule":
        return Rule(self.head, self.body, self.aggregates, rule_id)

    @property
    def is_fact(self) -> bool:
        return not self.body and self.head.is_ground()

    @property
    def has_aggregates(self) -> bool:
        return bool(self.aggregates)

    def positive_literals(self) -> List[RelLiteral]:
        return [
            lit for lit in self.body
            if isinstance(lit, RelLiteral) and not lit.negated
        ]

    def negative_literals(self) -> List[RelLiteral]:
        return [
            lit for lit in self.body
            if isinstance(lit, RelLiteral) and lit.negated
        ]

    def builtin_literals(self) -> List[BuiltinLiteral]:
        return [lit for lit in self.body if isinstance(lit, BuiltinLiteral)]

    def variables(self) -> Set[Variable]:
        out = set(self.head.variables())
        for lit in self.body:
            out.update(lit.variables())
        return out

    def rename_apart(self, suffix: str) -> "Rule":
        """Return a copy with every variable renamed (for rule instantiation
        that must not capture variables of other rules)."""
        mapping = Substitution(
            {v: Variable(f"{v.name}__{suffix}") for v in self.variables()}
        )
        return Rule(
            self.head.substitute(mapping),
            [lit.substitute(mapping) for lit in self.body],
            self.aggregates,
            self.rule_id,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Rule)
            and self.head == other.head
            and self.body == other.body
            and self.aggregates == other.aggregates
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        head = repr(self.head)
        if self.aggregates:
            # Each aggregate prints at its head position, as parsed.
            args = [repr(a) for a in self.head.args]
            for spec in self.aggregates:
                var = "_" if spec.var is None else repr(spec.var)
                args[spec.position] = f"{spec.function}({var})"
            head = f"{self.head.predicate}({', '.join(args)})"
        if not self.body:
            return f"{head}."
        body = ", ".join(repr(lit) for lit in self.body)
        return f"{head} :- {body}."


class Program:
    """An ordered collection of rules plus ground facts.

    The program is the unit handed to analysis (safety, stratification)
    and to the compilers (centralized evaluator, distributed plan).
    """

    def __init__(self, rules: Iterable[Rule] = (), facts: Iterable[Atom] = ()):
        self.rules: List[Rule] = []
        self.facts: List[Atom] = []
        for rule in rules:
            self.add_rule(rule)
        for fact in facts:
            self.add_fact(fact)

    def add_rule(self, rule: Rule) -> Rule:
        """Append a rule, assigning its ``rule_id``; returns the stored rule."""
        if rule.is_fact:
            self.add_fact(rule.head)
            return rule
        rule = rule.with_id(len(self.rules))
        self.rules.append(rule)
        return rule

    def add_fact(self, fact: Atom) -> None:
        if not fact.is_ground():
            raise ProgramError(f"fact {fact!r} is not ground")
        self.facts.append(fact)

    # -- predicate classification --------------------------------------

    def idb_predicates(self) -> Set[str]:
        """Predicates defined by at least one rule head (derived tables)."""
        return {r.head.predicate for r in self.rules}

    def edb_predicates(self) -> Set[str]:
        """Predicates only ever read: base streams / base tables."""
        idb = self.idb_predicates()
        out: Set[str] = set()
        for rule in self.rules:
            for lit in rule.body:
                if isinstance(lit, RelLiteral) and lit.predicate not in idb:
                    out.add(lit.predicate)
        for fact in self.facts:
            if fact.predicate not in idb:
                out.add(fact.predicate)
        return out

    def predicates(self) -> Set[str]:
        return self.idb_predicates() | self.edb_predicates()

    def rules_for(self, predicate: str) -> List[Rule]:
        return [r for r in self.rules if r.head.predicate == predicate]

    def arities(self) -> Dict[str, Set[int]]:
        """Map predicate name to the set of arities it is used with."""
        out: Dict[str, Set[int]] = {}
        for rule in self.rules:
            out.setdefault(rule.head.predicate, set()).add(rule.head.arity)
            for lit in rule.body:
                if isinstance(lit, RelLiteral):
                    out.setdefault(lit.predicate, set()).add(lit.atom.arity)
        for fact in self.facts:
            out.setdefault(fact.predicate, set()).add(fact.arity)
        return out

    def validate_arities(self) -> None:
        """Raise if any predicate is used with inconsistent arity."""
        for pred, arities in self.arities().items():
            if len(arities) > 1:
                raise ProgramError(
                    f"predicate {pred!r} used with multiple arities: {sorted(arities)}"
                )

    def extend(self, other: "Program") -> "Program":
        """Return a new program containing this program's rules then the
        other's (rule ids reassigned)."""
        return Program(
            itertools.chain(self.rules, other.rules),
            itertools.chain(self.facts, other.facts),
        )

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:
        lines = [repr(r) for r in self.rules]
        lines.extend(f"{f!r}." for f in self.facts)
        return "\n".join(lines)
