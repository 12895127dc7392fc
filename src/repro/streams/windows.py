"""Time-based sliding windows over data streams.

Sensor data is modeled as unbounded streams; limited memory forces
nodes to keep only a sliding window of recent tuples (Section II-B).
Windows here are time-based: a tuple with generation timestamp ``g``
belongs to the window of time ``T`` when ``T - range < g <= T``.

Expiry follows the paper's storage-time rule (Section IV-B): a replica
may be physically dropped only after

    (tau_s + tau_c) + tau_j + (tau_w + tau_c)

so that every join-computation phase that could still match the tuple
finds it present.  Deleted tuples keep their slot (with a deletion
timestamp) until the same bound passes.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional

from .tuples import StreamTuple, TupleID


class WindowParams:
    """The timing constants of Theorem 3."""

    def __init__(self, window: float, tau_s: float, tau_c: float, tau_j: float):
        self.window = window      # tau_w: sliding-window range
        self.tau_s = tau_s        # storage-phase completion bound
        self.tau_c = tau_c        # max clock skew between two nodes
        self.tau_j = tau_j        # join-phase completion bound

    @property
    def join_delay(self) -> float:
        """Delay between storage-phase start and join-phase start."""
        return self.tau_s + self.tau_c

    @property
    def storage_time(self) -> float:
        """Total replica retention time before physical expiry."""
        return (self.tau_s + self.tau_c) + self.tau_j + (self.window + self.tau_c)

    def __repr__(self) -> str:
        return (
            f"WindowParams(w={self.window}, s={self.tau_s}, "
            f"c={self.tau_c}, j={self.tau_j})"
        )


class SlidingWindow:
    """A sliding window of stream tuples for one predicate at one node.

    Holds both locally generated tuples and replicas received during
    storage phases; supports the timestamp-scoped visibility queries the
    join-computation phase needs.
    """

    def __init__(self, predicate: str, params: WindowParams):
        self.predicate = predicate
        self.params = params
        self._tuples: Dict[TupleID, StreamTuple] = {}
        # The earliest generation timestamp held (inf when empty): no
        # tuple can expire before the horizon passes it.
        self._oldest = math.inf

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[StreamTuple]:
        return iter(self._tuples.values())

    def store(self, tup: StreamTuple) -> bool:
        """Store a tuple/replica; duplicate IDs are ignored (replication
        is idempotent).  Returns True when newly stored."""
        if tup.tuple_id in self._tuples:
            return False
        self._tuples[tup.tuple_id] = tup
        if tup.tuple_id.timestamp < self._oldest:
            self._oldest = tup.tuple_id.timestamp
        return True

    def mark_deleted(self, tuple_id: TupleID, deletion_ts: float) -> bool:
        """Record a deletion timestamp on a replica (the *removal* of
        Section IV — not a physical delete).  Returns True if found."""
        tup = self._tuples.get(tuple_id)
        if tup is None:
            return False
        if tup.deletion_ts is None or deletion_ts < tup.deletion_ts:
            tup.deletion_ts = deletion_ts
        return True

    def live_at(self, when: float) -> List[StreamTuple]:
        """Tuples visible to an update with timestamp ``when`` (Theorem 3):
        generated in ``(when - tau_w, when]`` and not deleted before
        ``when``."""
        return [
            t for t in self._tuples.values()
            if t.is_live_at(when, self.params.window)
        ]

    def expire(self, now: float) -> List[StreamTuple]:
        """Drop tuples whose storage time has fully elapsed; returns what
        was dropped (for memory accounting)."""
        horizon = now - self.params.storage_time
        if self._oldest > horizon:
            return []  # the oldest tuple is still within its storage time
        dropped = [
            t for t in self._tuples.values() if t.generation_ts <= horizon
        ]
        for t in dropped:
            del self._tuples[t.tuple_id]
        self._oldest = min(
            (t.generation_ts for t in self._tuples.values()), default=math.inf
        )
        return dropped

    def get(self, tuple_id: TupleID) -> Optional[StreamTuple]:
        return self._tuples.get(tuple_id)

    def memory_tuples(self) -> int:
        """Resident tuple count — the per-node memory metric of
        Section V."""
        return len(self._tuples)
