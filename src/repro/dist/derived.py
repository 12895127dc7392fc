"""Derived facts as both distributed engines ship and store them: a
:class:`WireDerivation` (rule id + :class:`FactRef` of each fact used)
travels to its head's hash or placement node, where the fact's
derivation set has one writer, :meth:`DerivedFact.apply`, ranking every
update by the timestamp it carries (Section IV-B), not by arrival."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.terms import term_size
from ..streams.tuples import ArgsTuple, TupleID


class FactRef:
    """A reference to a joined fact: predicate, ground args, tuple id."""

    __slots__ = ("pred", "args", "tuple_id", "_ident")

    def __init__(self, pred: str, args: ArgsTuple, tuple_id: TupleID):
        self.pred = pred
        self.args = args
        self.tuple_id = tuple_id

    def identity(self):
        """``(pred, repr(args), repr(tuple_id))``, spelled once per
        reference (a reference is immutable)."""
        try:
            return self._ident
        except AttributeError:
            self._ident = (self.pred, repr(self.args), repr(self.tuple_id))
            return self._ident

    def size(self) -> int:
        return 2 + sum(term_size(a) for a in self.args)

    def __eq__(self, other):
        return (
            isinstance(other, FactRef)
            and (self.pred, self.args, self.tuple_id)
            == (other.pred, other.args, other.tuple_id)
        )

    def __hash__(self):
        return hash((self.pred, self.args, self.tuple_id))

    def __repr__(self):
        return f"{self.pred}{tuple(map(repr, self.args))}"


class WireDerivation:
    """A derivation as shipped in result messages: rule id + fact refs."""

    __slots__ = ("rule_id", "facts", "_ident")

    def __init__(self, rule_id: int, facts: Tuple[FactRef, ...]):
        self.rule_id = rule_id
        self.facts = facts

    def identity(self):
        try:
            return self._ident
        except AttributeError:
            self._ident = (
                self.rule_id, tuple(sorted(f.identity() for f in self.facts))
            )
            return self._ident

    def size(self) -> int:
        return 1 + 2 * len(self.facts)

    def __repr__(self):
        return f"<r{self.rule_id}: {list(self.facts)!r}>"


class DerivedFact:
    """State of one derived fact where it is stored: the live derivation
    set (visible while there is one) and the ``ledger`` that decides it
    — per derivation identity the top-ranked ``(op, derivation, stamp)``
    received: an 'add' is a live derivation under the stamp it was added
    with, a 'sub' a tombstone under the highest it was subtracted with.
    Stamps are floats in ``GPAEngine``, ``(time, node, seq)`` tuples in
    ``LocalizedEngine``."""

    __slots__ = ("derivations", "ledger", "tuple_id")

    def __init__(self):
        self.derivations: Dict[tuple, WireDerivation] = {}
        self.ledger: Dict[tuple, Tuple[str, WireDerivation, object]] = {}
        self.tuple_id: Optional[TupleID] = None

    @property
    def visible(self) -> bool:
        return bool(self.derivations)

    def apply(self, op: str, derivation: WireDerivation, stamp) -> None:
        """The one way a derivation set changes (results, migrated
        state, anti-entropy, base facts): a subtraction stamped tau
        cancels every addition of its identity stamped <= tau, whichever
        lands first; a later-stamped addition survives it.  Only the
        top-ranked update per identity, by ``(stamp, is a sub)``, need be
        kept, and every arrival order — duplicates included — ends in
        one state.

        :meth:`~repro.dist.gpa.JoinToken.stamp` makes it the paper's
        order.  A blocker born at b subtracts a derivation only if its
        token sees the support (generated <= b), and the support's own
        add exists only if its token did not see the blocker (stamp <
        b): the sub outranks it.  The re-add after the blocker's deletion
        carries the deletion time, > b, and survives a late sub(b).
        ``sees`` compares the same timestamps, so its tau_c covers skew
        here."""
        ident = derivation.identity()
        held = self.ledger.get(ident)
        if held is not None and (stamp, op == "sub") <= (held[2], held[0] == "sub"):
            return  # outranked, or a duplicate (replication, retro over-coverage)
        self.ledger[ident] = (op, derivation, stamp)
        if op == "add":
            self.derivations[ident] = derivation
        else:
            self.derivations.pop(ident, None)

    def expire(self, horizon: float) -> int:
        """Forget the tombstones stamped at or before ``horizon``
        (:meth:`~repro.dist.gpa.GPAEngine._horizon`); returns how many."""
        stale = [
            ident for ident, (op, _d, stamp) in self.ledger.items()
            if op == "sub" and stamp <= horizon
        ]
        for ident in stale:
            del self.ledger[ident]
        return len(stale)
