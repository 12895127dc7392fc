"""Stream tuples and tuple identity.

Definition 2: the *source node* of a tuple is where it was generated (a
derived tuple is generated at its hashed location); the *tuple ID* is
``(source node, generation timestamp)`` with the timestamp read from the
source node's local clock.  Deletions never reuse IDs — a deletion is
recorded as a *deletion timestamp* on the same tuple.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from ..core.terms import Term, term_size, to_term

ArgsTuple = Tuple[Term, ...]


class TupleID:
    """Unique tuple identity: source node id + local generation timestamp
    (+ a per-node sequence number to disambiguate same-instant tuples)."""

    __slots__ = ("source", "timestamp", "seq")

    def __init__(self, source: int, timestamp: float, seq: int = 0):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "timestamp", timestamp)
        object.__setattr__(self, "seq", seq)

    def __setattr__(self, name, value):
        raise AttributeError("TupleID is immutable")

    def __reduce__(self):
        # The guard also blocks pickle's slot restore; rebuild through
        # the constructor (tuple ids cross shard-worker boundaries).
        return (TupleID, (self.source, self.timestamp, self.seq))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TupleID)
            and (self.source, self.timestamp, self.seq)
            == (other.source, other.timestamp, other.seq)
        )

    def __lt__(self, other: "TupleID") -> bool:
        return (self.timestamp, self.source, self.seq) < (
            other.timestamp,
            other.source,
            other.seq,
        )

    def __hash__(self) -> int:
        return hash((self.source, self.timestamp, self.seq))

    def __repr__(self) -> str:
        return f"({self.source}@{self.timestamp:.3f}#{self.seq})"


class StreamTuple:
    """A tuple of a data stream: predicate, ground arguments, identity,
    and an optional deletion timestamp (set when the source deletes it;
    replicas record the deletion instead of physically vanishing so that
    in-flight join phases still observe a consistent window,
    Section IV-B)."""

    __slots__ = ("predicate", "args", "tuple_id", "deletion_ts")

    def __init__(
        self,
        predicate: str,
        args: Iterable,
        tuple_id: TupleID,
        deletion_ts: Optional[float] = None,
    ):
        self.predicate = predicate
        self.args: ArgsTuple = tuple(to_term(a) for a in args)
        self.tuple_id = tuple_id
        self.deletion_ts = deletion_ts

    def replica(self) -> "StreamTuple":
        """An independent copy for another node's window: the same
        argument terms (already normalized, so not run through
        ``to_term`` again), id and deletion timestamp."""
        copy = StreamTuple.__new__(StreamTuple)
        copy.predicate = self.predicate
        copy.args = self.args
        copy.tuple_id = self.tuple_id
        copy.deletion_ts = self.deletion_ts
        return copy

    @property
    def generation_ts(self) -> float:
        return self.tuple_id.timestamp

    def is_live_at(self, when: float, window: Optional[float] = None) -> bool:
        """Theorem 3 visibility rule for an update with timestamp ``when``:
        the tuple must have been generated within the window before
        ``when`` and not deleted before ``when``."""
        if self.generation_ts > when:
            return False
        if window is not None and self.generation_ts <= when - window:
            return False
        if self.deletion_ts is not None and self.deletion_ts < when:
            return False
        return True

    def size(self) -> int:
        """Symbol count — input to the byte-cost model."""
        return 2 + sum(term_size(a) for a in self.args)

    def key(self) -> Tuple[str, ArgsTuple]:
        return (self.predicate, self.args)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StreamTuple)
            and self.predicate == other.predicate
            and self.args == other.args
            and self.tuple_id == other.tuple_id
        )

    def __hash__(self) -> int:
        return hash((self.predicate, self.args, self.tuple_id))

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        suffix = f" [del@{self.deletion_ts:.3f}]" if self.deletion_ts is not None else ""
        return f"{self.predicate}({inner}){self.tuple_id!r}{suffix}"
