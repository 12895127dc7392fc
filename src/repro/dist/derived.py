"""Derived facts as both distributed engines ship and store them: a
derivation (rule id + a reference to each fact used, in body order)
travels to its head's hash or placement node, where the fact's
derivation set has one writer, :meth:`DerivedFact.apply`, ranking every
update by the timestamp it carries (Section IV-B), not by arrival.  A
node keeps its facts, in both engines, in one :class:`DerivedTable`.

The engines spell a derivation two ways; the ledger keys on either.

* ``GPAEngine`` ships a :class:`WireDerivation` of :class:`FactRef`
  references, each the fact's terms and stream ``TupleID``: they cross
  shard borders and checkpoints, where interner ids are process-local.
  They compare by term equality (``1`` and ``1.0`` are one fact, as in
  the central store) and hash once.
* ``LocalizedEngine`` ships the central store's record ``(rule_id,
  ref_1, ..., ref_k)`` (:mod:`repro.core.derivations`): a ref is
  ``(pred, id_1, ..., id_n)`` over the process-wide interner, made once
  as a row turns visible, and record and ref hash and compare in C.

Either way a derivation is its own identity, so the ledger, the
localized watch index and ``derivation_store`` key on it.

Both engines share the rest of a derived fact's life: one message,
:class:`ResultMsg`, carries each update to the fact's home; one call,
:meth:`DerivedTable.update`, ranks it and says whether the derivation's
liveness flipped; one fold, :meth:`DerivedTable.moves`, turns a
valuation's flip at its group's home into ``(op, row)`` moves of the
group's row.  Each engine stamps (GPA floats, localized ``(time, node,
seq)`` tuples), sends and expires its own way."""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core.aggregates import Aggregate
from ..core.terms import term_size
from ..net.messages import Message
from ..streams.tuples import ArgsTuple, TupleID


class FactRef:
    """A reference to a joined fact: predicate, ground args, tuple id.
    Equal references are one dictionary key: args compare as terms
    (``1`` and ``1.0`` are one fact, as in the central store)."""

    __slots__ = ("pred", "args", "tuple_id", "_hash")

    def __init__(self, pred: str, args: ArgsTuple, tuple_id: TupleID):
        self.pred = pred
        self.args = args
        self.tuple_id = tuple_id

    def __reduce__(self):
        # Rebuild through the constructor: a cached hash of string
        # terms is only valid in the process that computed it.
        return (FactRef, (self.pred, self.args, self.tuple_id))

    def size(self) -> int:
        return 2 + sum(term_size(a) for a in self.args)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FactRef)
            and self.pred == other.pred
            and self.tuple_id == other.tuple_id
            and self.args == other.args
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.pred, self.args, self.tuple_id))
            return self._hash

    def __repr__(self):
        return f"{self.pred}{tuple(map(repr, self.args))}"


class WireDerivation:
    """A derivation as GPA ships it in result messages: rule id + a
    fact ref per positive subgoal, in body order — the central record's
    ``(rule_id, ref_1, ..., ref_k)`` spelled in terms and tuple ids.
    Equal derivations are one dictionary key."""

    __slots__ = ("rule_id", "facts", "_hash")

    def __init__(self, rule_id: int, facts: Tuple[FactRef, ...]):
        self.rule_id = rule_id
        self.facts = facts

    def __reduce__(self):
        return (WireDerivation, (self.rule_id, self.facts))

    def size(self) -> int:
        return 1 + 2 * len(self.facts)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, WireDerivation)
            and self.rule_id == other.rule_id
            and self.facts == other.facts
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.rule_id, self.facts))
            return self._hash

    def __repr__(self):
        return f"<r{self.rule_id}: {list(self.facts)!r}>"


class DerivedFact:
    """State of one derived fact where it is stored: the live derivation
    set (visible while there is one) and the ``ledger`` that decides it
    — per derivation the top-ranked ``(op, derivation, stamp)``
    received: an 'add' is a live derivation under the stamp it was added
    with, a 'sub' a tombstone under the highest it was subtracted with.
    Derivations are :class:`WireDerivation` objects and stamps floats in
    ``GPAEngine``; derivations are central records and stamps ``(time,
    node, seq)`` tuples in ``LocalizedEngine``."""

    __slots__ = ("derivations", "ledger", "tuple_id")

    def __init__(self):
        self.derivations: Dict[object, object] = {}  # WireDerivation or record
        self.ledger: Dict[object, Tuple[str, object, object]] = {}
        self.tuple_id: Optional[TupleID] = None

    @property
    def visible(self) -> bool:
        return bool(self.derivations)

    def apply(self, op: str, derivation, stamp) -> bool:
        """The one way a derivation set changes (results, migrated
        state, anti-entropy, base facts): a subtraction stamped tau
        cancels every addition of an equal derivation stamped <= tau,
        whichever lands first; a later-stamped addition survives it.
        Only the top-ranked update per derivation, by ``(stamp, is a
        sub)``, need be kept, and every arrival order — duplicates
        included — ends in one state.

        :meth:`~repro.dist.gpa.JoinToken.stamp` makes it the paper's
        order.  A blocker born at b subtracts a derivation only if its
        token sees the support (generated <= b), and the support's own
        add exists only if its token did not see the blocker (stamp <
        b): the sub outranks it.  The re-add after the blocker's deletion
        carries the deletion time, > b, and survives a late sub(b).
        ``sees`` compares the same timestamps, so its tau_c covers skew
        here.

        Returns whether the derivation's liveness flipped."""
        held = self.ledger.get(derivation)
        if held is not None and (stamp, op == "sub") <= (held[2], held[0] == "sub"):
            return False  # outranked, or a duplicate (replication, retro over-coverage)
        self.ledger[derivation] = (op, derivation, stamp)
        if op == "add":
            flipped = derivation not in self.derivations
            self.derivations[derivation] = derivation
            return flipped
        return self.derivations.pop(derivation, None) is not None


class DerivedTable(dict):
    """One node's derived facts by ``(pred, args)``, in insertion order
    (no walk depends on ``PYTHONHASHSEED``): ``NodeRuntime.derived``
    and ``LocalRuntime.placed``."""

    __slots__ = ()
    new = DerivedFact  # the kind of fact :meth:`fact` creates

    def fact(self, pred: str, args: ArgsTuple) -> DerivedFact:
        """The fact ``pred(args)`` stored here, created on first use."""
        fact = self.get((pred, args))
        if fact is None:
            fact = self[(pred, args)] = self.new()
        return fact

    def update(self, pred: str, args: ArgsTuple, op: str, derivation,
               stamp) -> Optional[DerivedFact]:
        """Rank one update into ``pred(args)``'s ledger
        (:meth:`DerivedFact.apply`): the fact if the derivation's
        liveness flipped, else None (outranked, a duplicate, or a
        tombstone raised)."""
        fact = self.fact(pred, args)
        return fact if fact.apply(op, derivation, stamp) else None

    def moves(self, aggregate: Aggregate,
              valuation: ArgsTuple) -> Iterator[Tuple[str, ArgsTuple]]:
        """``(op, row)`` per move of the group row (:meth:`Aggregate.moved`)
        once ``valuation`` flipped visibility here, at its group's home:
        the new row gains the fold's derivation, then the old one loses
        it.  The caller stamps each move above the last it folded."""
        visible = [args for _p, args, _f in self.visible(aggregate.valuation)]
        for old, new in aggregate.moved(visible, (valuation,)):
            for op, row in (("add", new), ("sub", old)):
                if row is not None:
                    yield op, row

    def visible(self, pred: Optional[str] = None) -> Iterator[Tuple[str, ArgsTuple, DerivedFact]]:
        """``(pred, args, fact)`` of every visible fact, or of ``pred``'s."""
        for (p, args), fact in self.items():
            if fact.visible and (pred is None or p == pred):
                yield p, args, fact

    def take(self, keep: Callable[[str, ArgsTuple], bool]) -> List[Tuple[str, ArgsTuple, DerivedFact]]:
        """Remove and return the facts whose ``(pred, args)`` pass ``keep``."""
        taken = [(p, args, fact) for (p, args), fact in self.items() if keep(p, args)]
        for p, args, _fact in taken:
            del self[(p, args)]
        return taken

    def tombstones(self) -> int:
        return sum(len(f.ledger) - len(f.derivations) for f in self.values())

    def memory_tuples(self) -> int:
        """Resident tuples: one per fact and one per tombstone."""
        return len(self) + self.tombstones()

    def expire(self, horizon) -> int:
        """Forget the tombstones stamped at or before ``horizon`` (once
        no update they outrank can land: the caller says when), then the
        facts left with an empty ledger; returns the tuples reclaimed."""
        reclaimed = 0
        for key, fact in list(self.items()):
            stale = [d for d, (op, _d, stamp) in fact.ledger.items()
                     if op == "sub" and stamp <= horizon]
            for d in stale:
                del fact.ledger[d]
            reclaimed += len(stale)
            if not fact.ledger:
                del self[key]
                reclaimed += 1
        return reclaimed


class ResultMsg(Message):
    """One update of a derived fact on its way home: a GPA result
    (kind ``gpa_result``; of category ``repair`` when anti-entropy
    resends it, stored but never published downstream), a localized
    result (``loc_result``, with the negated atoms its home watches) or
    replica (``loc_replica``).  Sized as on the wire: the fact, the
    derivation's rule id plus two symbols (predicate, fact id) per fact
    — none for a replica's rule -1 derivation, which names the fact it
    travels with — and two per watched atom; the stamp is unsized."""

    #: GPA serving mode: already chased a migrated placement once.
    re_homed = False

    def __init__(self, pred: str, args: ArgsTuple, derivation, op: str, stamp,
                 neg_atoms: Tuple[Tuple[str, ArgsTuple], ...] = (),
                 kind: str = "gpa_result", category: str = "result"):
        if isinstance(derivation, WireDerivation):
            cost = derivation.size()
        else:
            cost = 0 if derivation[0] == -1 else 2 * len(derivation) - 1
        size = 1 + sum(term_size(a) for a in args) + cost + 2 * len(neg_atoms)
        super().__init__(kind, payload_symbols=size, category=category)
        self.pred = pred
        self.args = args
        self.derivation = derivation
        self.op = op  # 'add' | 'sub'
        self.stamp = stamp
        self.neg_atoms = neg_atoms
