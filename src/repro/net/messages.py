"""Network messages.

A message is a typed payload with a size estimate.  The byte-cost model
charges a fixed header plus a per-symbol cost for terms (constants,
variables, function symbols all count one symbol — matching how a real
implementation would serialize term trees).
"""

from __future__ import annotations

import itertools
from typing import Optional

#: Bytes charged per message for headers (addresses, type, ids).
HEADER_BYTES = 8
#: Bytes charged per term symbol in a payload.
BYTES_PER_SYMBOL = 4

_msg_counter = itertools.count()


def set_msg_id_base(base: int) -> None:
    """Restart message-id allocation at ``base``.

    Sharded simulation workers carve the id space into disjoint ranges
    (``shard_id << 40``) so messages created in different worker
    processes can never collide on the transport dedup key
    ``(sender, msg_id)``.  Ids only need to be unique, never dense or
    comparable, so single-process code is unaffected by where the
    counter starts.
    """
    global _msg_counter
    _msg_counter = itertools.count(base)


class Message:
    """Base class for everything the radio carries.

    ``kind`` selects the receiving handler; ``dst`` is the final
    destination for routed messages (None for single-hop / flood);
    ``payload_symbols`` drives the byte-cost model; ``category`` names
    the phase the message belongs to ("storage", "join", "result",
    "control", ...) for metrics/tracing breakdowns.  Category is a
    property of the message itself, set at construction.

    Slotted: large simulations hold hundreds of thousands of live
    message records, so the six hot fields live in ``__slots__``.
    ``__dict__`` stays in the slot list as a lazy escape hatch — ad-hoc
    attributes (test tags, telemetry timestamps) still work and only
    instances that actually use them allocate a dict.
    """

    __slots__ = ("kind", "dst", "payload_symbols", "category", "msg_id",
                 "hops", "__dict__")

    def __init__(
        self,
        kind: str,
        dst: Optional[int] = None,
        payload_symbols: int = 0,
        category: str = "data",
    ):
        self.kind = kind
        self.dst = dst
        self.payload_symbols = payload_symbols
        self.category = category
        self.msg_id = next(_msg_counter)
        self.hops = 0

    @property
    def size_bytes(self) -> int:
        return HEADER_BYTES + BYTES_PER_SYMBOL * self.payload_symbols

    def __repr__(self) -> str:
        return f"<{self.kind} #{self.msg_id} -> {self.dst}>"
