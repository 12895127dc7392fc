"""Sensor nodes.

A node owns a local clock (with bounded skew), a handler table for
message kinds (the "other layers" of Fig. 2/3 register themselves
here), and primitives for single-hop sends, routed multi-hop sends, and
path-following sends (the storage/join-phase traversals of PA).

Sends take an optional ``on_status`` delivery callback and an optional
``reliable`` override; routed envelopes are forwarded hop-by-hop with
whatever reliability the radio is configured for, so multi-hop
storage/join traversals survive lossy links when the reliable
transport is on.  The delivery-status contract for routed sends:
``delivered`` fires once when the envelope reaches its destination
node; ``gave_up`` fires when any hop exhausts its retry budget
(reliable mode only — unreliable drops vanish silently, as before).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, TYPE_CHECKING

from ..core.errors import NetworkError
from ..obs import instrument as _inst
from ..obs import state as _obs
from . import messages as _messages
from .messages import Message
from .sim import LocalClock
from .transport import (
    GIVE_UP_DEAD, GIVE_UP_NO_ROUTE, StatusCallback, notify_gave_up,
)

if TYPE_CHECKING:  # pragma: no cover
    from .network import SensorNetwork

Handler = Callable[["Node", Message], None]

#: Handler kind used for routed-message forwarding.
ROUTED = "__routed__"


class RoutedEnvelope(Message):
    """Wraps an inner message for hop-by-hop forwarding to ``dst``.

    The envelope's category is the inner message's (set it on the
    inner message at construction).  Its size is fixed at construction
    too: a slot every hop's frame reads, not the per-read property.
    """

    __slots__ = ("inner", "on_status", "repair_budget", "geo_fallback",
                 "size_bytes")

    def __init__(
        self,
        inner: Message,
        dst: int,
        on_status: Optional[StatusCallback] = None,
    ):
        # Message.__init__, written out: one envelope per routed send.
        self.kind = ROUTED
        self.dst = dst
        self.payload_symbols = inner.payload_symbols
        self.category = inner.category
        self.msg_id = next(_messages._msg_counter)
        self.hops = 0
        self.size_bytes = (
            _messages.HEADER_BYTES
            + _messages.BYTES_PER_SYMBOL * inner.payload_symbols
        )
        self.inner = inner
        self.on_status = on_status
        #: Remaining next-hop re-selections the self-repair failure
        #: detector may spend on this envelope before giving up.
        self.repair_budget = 3
        #: Geographic routing: set once the envelope has left greedy
        #: forwarding for the tables (see GeoRouter.envelope_hop).
        self.geo_fallback = False

    def __getstate__(self):
        """Pickled (shard checkpoints, border copies) as it was before
        the size had a slot: the default slot state, in the default
        order, less the size, which :meth:`__setstate__` derives again."""
        extra = self.__dict__
        return (extra or None, {name: getattr(self, name) for name in _STATE})

    def __setstate__(self, state) -> None:
        extra, slots = state
        if extra:
            self.__dict__.update(extra)
        for name, value in slots.items():
            setattr(self, name, value)
        self.size_bytes = Message.size_bytes.fget(self)

    def _hop_status(self, status: str, reason: str = "") -> None:
        """Per-hop transport outcome: only terminal failure propagates
        (success is reported end-to-end, at the destination node)."""
        if status == "gave_up":
            notify_gave_up(self.on_status, reason)


#: The envelope's pickled slots: its own, then Message's, as the
#: default pickle orders them.
_STATE = tuple(
    name for cls in (RoutedEnvelope, Message) for name in cls.__slots__
    if name not in ("size_bytes", "__dict__")
)


class Node:
    """One simulated sensor node."""

    def __init__(self, node_id: int, network: "SensorNetwork", clock: LocalClock):
        self.id = node_id
        self.network = network
        self.clock = clock
        self._handlers: Dict[str, Handler] = {}
        self._seq = 0
        self._minted = 0
        self._neighbors: Optional[Sequence[int]] = None

    # -- identity ---------------------------------------------------------

    @property
    def position(self):
        return self.network.topology.position(self.id)

    @property
    def neighbors(self) -> Sequence[int]:
        """Sorted neighbor ids (cached — the topology never changes)."""
        if self._neighbors is None:
            self._neighbors = self.network.topology.neighbors(self.id)
        return self._neighbors

    def next_seq(self) -> int:
        """Per-node sequence counter (disambiguates same-instant tuples)."""
        self._seq += 1
        return self._seq

    def next_minted_seq(self) -> int:
        """Sequence number for the id of a derived fact this node mints.
        Counts down from -1, apart from :meth:`next_seq`: a base tuple's
        id never depends on what its node derived before, and a minted
        id never equals a base one."""
        self._minted -= 1
        return self._minted

    # -- handlers -----------------------------------------------------------

    def register_handler(self, kind: str, handler: Handler, replace: bool = False) -> None:
        if kind in self._handlers and not replace:
            raise NetworkError(f"duplicate handler for {kind!r} at node {self.id}")
        self._handlers[kind] = handler

    def deliver(self, message: Message) -> None:
        """Entry point for messages arriving over the radio."""
        while isinstance(message, RoutedEnvelope):
            if message.dst != self.id:
                self._forward(message)
                return
            if message.on_status is not None:
                message.on_status("delivered")
            message = message.inner
        handler = self._handlers.get(message.kind)
        if handler is None:
            raise NetworkError(
                f"node {self.id} has no handler for message kind {message.kind!r}"
            )
        handler(self, message)

    def _forward(self, envelope: RoutedEnvelope) -> None:
        """Send a routed envelope one hop toward its destination.

        The hop always comes from :meth:`Router.envelope_hop`, and goes
        out as :meth:`Radio.transmit` would send it under the radio-wide
        mode: one frame when unreliable, a transfer when reliable.  With
        the network's ``self_repair`` flag off that is all (no route
        raises).  With it on, the per-hop delivery-status callback
        doubles as a failure detector: a hop that terminally fails
        because its next hop is dead (or its link is down) gets that
        node/edge excluded from the routing view and the envelope
        re-forwarded along the repaired tree — parent re-selection,
        bounded by the envelope's ``repair_budget``.
        """
        network = self.network
        try:
            hop = network.router.envelope_hop(self.id, envelope)
        except NetworkError:
            if not network.self_repair:
                raise
            notify_gave_up(envelope.on_status, GIVE_UP_NO_ROUTE)
            return
        # network.node(hop) only when the hop is a remote shard's stub.
        peer = network.nodes.get(hop) or network.node(hop)
        radio = network.radio
        if not radio.reliable:
            # Fire and forget: no hop outcome is ever reported.
            radio._send_frame(self.id, hop, envelope, peer.deliver)
            return
        if not network.self_repair:
            radio.transport.send(
                self.id, hop, envelope, peer.deliver, envelope._hop_status
            )
            return

        def hop_outcome(status: str, reason: str = "") -> None:
            if status != "gave_up":
                return
            router = network.router
            if reason == GIVE_UP_DEAD:
                router.exclude(hop)
            else:
                # Budget exhausted with the neighbor alive: the link
                # itself is bad (severed or hopelessly lossy) — route
                # around the edge, not the node.
                router.exclude_edge(self.id, hop)
            if envelope.repair_budget <= 0:
                notify_gave_up(envelope.on_status, reason)
                return
            envelope.repair_budget -= 1
            router.repairs += 1
            if _obs.enabled:
                _inst.tree_repairs.labels(kind="route").inc()
            self._forward(envelope)

        radio.transport.send(self.id, hop, envelope, peer.deliver, hop_outcome)

    # -- sending ------------------------------------------------------------

    def send(
        self,
        neighbor_id: int,
        message: Message,
        reliable: Optional[bool] = None,
        on_status: Optional[StatusCallback] = None,
    ) -> None:
        """Single-hop send to a direct neighbor."""
        if not self.network.topology.are_neighbors(self.id, neighbor_id):
            raise NetworkError(
                f"node {self.id} cannot reach non-neighbor {neighbor_id}"
            )
        self.network.radio.transmit(
            self.id, neighbor_id, message,
            self.network.node(neighbor_id).deliver,
            reliable=reliable, on_status=on_status,
        )

    def send_routed(
        self,
        dst: int,
        message: Message,
        on_status: Optional[StatusCallback] = None,
    ) -> None:
        """Multi-hop send via the routing layer."""
        if dst == self.id:
            if on_status is not None:
                on_status("delivered")
            self.deliver(message)
            return
        envelope = RoutedEnvelope(message, dst, on_status=on_status)
        self._forward(envelope)

    def local_deliver(self, message: Message) -> None:
        """Hand a message to this node's own handler without any radio
        cost (used when a phase starts at the generating node itself)."""
        self.deliver(message)

    def __repr__(self) -> str:
        return f"Node({self.id}@{self.position})"
