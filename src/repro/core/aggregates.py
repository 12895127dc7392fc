"""Head aggregates as derived facts.

Section IV-C reads an aggregate as an all-solutions predicate.  Here an
aggregate rule derives one *valuation fact* per distinct body
valuation, under a predicate of its own (:attr:`Aggregate.valuation`):
its arguments are the *group* — the head arguments outside the
aggregate positions — followed by every named body variable.  A
valuation is kept like any derived fact, visible while a derivation
supports it, so two body matches that differ only in an anonymous
variable are one valuation with two derivations.

The aggregate row of a group is the fold of its visible valuations.
It is recorded with one derivation of its own, ``(rule id)`` with an
empty body, so when a valuation appears or disappears and the fold
moves, the new row gains that derivation and the old row loses it:
downstream rules see an ordinary insert and delete.  Every engine —
central evaluation, the maintainers of :mod:`repro.core.incremental`
and :class:`repro.dist.gpa.GPAEngine` — folds through
:meth:`Aggregate.moved`, so they agree on every row.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

from .ast import Atom, Rule
from .builtins import eval_term, value_to_term
from .errors import EvaluationError

ArgsTuple = Tuple[object, ...]


def fold(function: str, values: List) -> object:
    """``function`` over ``values`` in any order: an exact ``sum`` when
    every value is an int, a correctly rounded one (``math.fsum``)
    otherwise, so no engine's arrival order shows in a float."""
    if function == "count":
        return len(values)
    if function == "min":
        return min(values)
    if function == "max":
        return max(values)
    if function not in ("sum", "avg"):
        raise EvaluationError(f"unknown aggregate {function!r}")
    exact = all(isinstance(v, int) for v in values)
    total = sum(values) if exact else math.fsum(values)
    return total if function == "sum" else total / len(values)


class Aggregate:
    """One aggregate rule's valuation head and fold, compiled once
    (:attr:`repro.core.plan.CompiledPlan.aggregate`)."""

    __slots__ = ("rule_id", "head", "arity", "valuation", "atom", "group", "width",
                 "specs")

    def __init__(self, rule: Rule):
        self.rule_id = rule.rule_id if rule.rule_id is not None else -1
        self.head = rule.head.predicate
        self.arity = rule.head.arity
        #: The predicate of the rule's valuation facts: no program can
        #: spell it, so it never meets a relation of the program.
        self.valuation = f"{self.head}#r{self.rule_id}"
        positions = {spec.position: spec for spec in rule.aggregates}
        #: Head positions of the group arguments, in head order.
        self.group = tuple(i for i in range(self.arity) if i not in positions)
        named = sorted(
            {v for lit in rule.body for v in lit.variables() if not v.is_anonymous},
            key=lambda v: v.name,
        )
        #: What a firing derives: the valuation fact.
        self.atom = Atom(
            self.valuation,
            tuple(rule.head.args[i] for i in self.group) + tuple(named),
        )
        #: How many leading valuation arguments spell the group.
        self.width = width = len(self.group)
        #: (head position, function, valuation index of its variable or
        #: None for ``count(_)``), in head order.
        self.specs = tuple(
            (pos, spec.function,
             None if spec.var is None else width + named.index(spec.var))
            for pos, spec in sorted(positions.items())
        )

    def row(self, group: ArgsTuple, valuations: List[ArgsTuple]) -> Optional[ArgsTuple]:
        """The aggregate row of ``group`` over its visible
        ``valuations``; None for an empty group."""
        if not valuations:
            return None
        args: List[object] = [None] * self.arity
        for pos, term in zip(self.group, group):
            args[pos] = term
        for pos, function, index in self.specs:
            values = [1 if index is None else eval_term(v[index]) for v in valuations]
            args[pos] = value_to_term(fold(function, values))
        return tuple(args)

    def moved(self, visible: Iterable[ArgsTuple],
              flipped: Iterable[ArgsTuple]) -> List[Tuple[Optional[ArgsTuple], Optional[ArgsTuple]]]:
        """``(old row, new row)`` of every group whose fold moved when
        the valuations ``flipped`` changed visibility, ``visible`` the
        valuations visible now (other groups' may be among them).
        Groups come in the order ``flipped`` first names them."""
        width = self.width
        flipped = list(flipped)
        now = {v[:width]: [] for v in flipped}
        for v in visible:
            bucket = now.get(v[:width])
            if bucket is not None:
                bucket.append(v)
        out = []
        for group, valuations in now.items():
            present = set(valuations)
            changed = dict.fromkeys(v for v in flipped if v[:width] == group)
            before = [v for v in valuations if v not in changed]
            before += [v for v in changed if v not in present]
            old, new = self.row(group, before), self.row(group, valuations)
            if old != new:
                out.append((old, new))
        return out
