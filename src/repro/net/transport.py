"""Reliable per-hop delivery: acks, retransmission, backoff, dedup.

The paper's correctness theorems (Theorems 1-3) assume bounded,
loss-free delivery; E7 shows join completeness collapsing once the
radio drops messages.  Real mote stacks (the TinyOS/TOSSIM substrate
the paper evaluates on) recover exactly this with link-layer
acknowledgments and retransmission.  This module restores the
bounded-delivery assumption — with a larger bound — on lossy links:

* every reliable frame is acknowledged by the receiver; the sender
  retransmits on ack timeout, with exponential backoff plus jitter and
  a bounded retry budget;
* the receiver suppresses duplicates keyed on ``(sender, msg_id)``, so
  a retransmitted tuple can never be delivered — and hence derived —
  twice (the set-of-derivations argument of Section IV-A assumes
  at-most-once delivery per hop); it remembers a frame for one retry
  horizon plus one flight after its first receipt, after which no
  retransmission of it can arrive;
* ack frames are real traffic: they pay radio energy, are themselves
  subject to loss and collisions, and respect the FIFO-link model
  (which is why a lost ack causes a retransmission the dedup layer
  then absorbs);
* a transfer that exhausts its retry budget reports ``gave_up``
  through the delivery-status callback, so upper layers (GPA phases)
  can observe incompleteness instead of silently missing results.

With reliability on, the worst-case hop latency is the full retry
horizon (all timeouts elapse, the last attempt flies); the radio's
``max_hop_delay`` reports that bound so tau_s / tau_j stay sound.
"""

from __future__ import annotations

import functools
import heapq
import inspect
from collections import defaultdict
from typing import Callable, Dict, Optional, Tuple, TYPE_CHECKING

from ..core.errors import NetworkError
from . import messages as _messages
from .messages import BYTES_PER_SYMBOL, HEADER_BYTES, Message

if TYPE_CHECKING:  # pragma: no cover
    from .radio import Radio

#: Delivery-status callback: called once with 'delivered' or 'gave_up'.
#: Callbacks that accept a second positional parameter additionally
#: receive the give-up *reason* ('dead' — the next hop was down when the
#: retry budget ran out, 'budget' — the link was just too lossy,
#: 'no_route' — the routing layer found no live path); single-parameter
#: callbacks keep working unchanged.
StatusCallback = Callable[[str], None]

#: Give-up reasons (the second argument of reason-aware callbacks).
GIVE_UP_DEAD = "dead"
GIVE_UP_BUDGET = "budget"
GIVE_UP_NO_ROUTE = "no_route"


def _accepts_reason(callback) -> bool:
    """Whether a status callback takes a second positional parameter
    (the give-up reason).  Inspected only on the rare give-up path."""
    try:
        signature = inspect.signature(callback)
    except (TypeError, ValueError):
        return False
    positional = 0
    for param in signature.parameters.values():
        if param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD):
            positional += 1
        elif param.kind == param.VAR_POSITIONAL:
            return True
    return positional >= 2


def notify_gave_up(callback: Optional[StatusCallback], reason: str) -> None:
    """Report a terminal delivery failure through ``callback``, passing
    the reason along when the callback can take it."""
    if callback is None:
        return
    if _accepts_reason(callback):
        callback("gave_up", reason)
    else:
        callback("gave_up")

#: Message kind of link-layer acknowledgments.
ACK = "__ack__"


class AckMsg(Message):
    """A link-layer acknowledgment for one received frame.

    Sized at one payload symbol (12 bytes under the cost model —
    comparable to an 802.15.4 ack frame).
    """

    __slots__ = ("acked_src", "acked_msg_id")

    #: One payload symbol: a class constant, not the per-read property.
    size_bytes = HEADER_BYTES + BYTES_PER_SYMBOL

    def __init__(self, acked_src: int, acked_msg_id: int):
        # Message.__init__, written out: one ack per received frame.
        self.kind = ACK
        self.dst = None
        self.payload_symbols = 1
        self.category = "ack"
        self.msg_id = next(_messages._msg_counter)
        self.hops = 0
        self.acked_src = acked_src
        self.acked_msg_id = acked_msg_id


class _Transfer:
    """In-flight reliable transfer state (one per un-acked frame).  It
    carries the frame and its callbacks, so every step of the protocol
    is callable from the transfer key alone — which is all a shard
    border record brings back."""

    __slots__ = ("acked", "attempt", "timeout", "message", "deliver",
                 "on_status")

    def __init__(self, timeout: float, message: Message,
                 deliver: Callable[[Message], None],
                 on_status: Optional[StatusCallback]):
        self.acked = False
        self.attempt = 0
        self.timeout = timeout
        self.message = message
        self.deliver = deliver
        self.on_status = on_status


#: The initial ack timeout, in one-hop flight bounds (a round trip
#: plus processing slack), derived from the radio's delay model.
ACK_TIMEOUT_FLIGHTS = 2.5
#: Each retry multiplies the timeout by this factor ...
BACKOFF = 2.0
#: ... and adds up to this fraction of it as random slack, to
#: desynchronize competing senders.
TIMEOUT_JITTER = 0.5


class TransportConfig:
    """The reliable layer's retry budget: ``max_retries`` bounds
    retransmissions per frame (attempts are ``1 + max_retries``)."""

    def __init__(self, max_retries: int = 5):
        if max_retries < 0:
            raise NetworkError(f"max_retries {max_retries} out of range")
        self.max_retries = max_retries

    def retry_horizon(self, max_flight: float) -> float:
        """Worst-case sender-side wait: every timeout (with maximal
        jitter) elapses before the final attempt's frame flies."""
        timeout = ACK_TIMEOUT_FLIGHTS * max_flight
        total = 0.0
        for _ in range(self.max_retries):
            total += timeout * (1.0 + TIMEOUT_JITTER)
            timeout *= BACKOFF
        return total


class ReliableTransport:
    """Per-hop ack/retransmit/dedup engine owned by a :class:`Radio`."""

    def __init__(self, radio: "Radio", config: TransportConfig):
        self.radio = radio
        self.config = config
        #: receiver node -> {(sender, msg_id): first receipt time} of
        #: the frames it delivered, kept until ``_prune`` drops them.
        self._seen: Dict[int, Dict[Tuple[int, int], float]] = defaultdict(dict)
        #: Simulated time of the next ``_prune``.
        self._prune_at = 0.0
        #: (src, dst, msg_id) -> in-flight transfer state.
        self._pending: Dict[Tuple[int, int, int], _Transfer] = {}

    def forget(self, node_id: int) -> None:
        """Drop ``node_id``'s volatile transport state (its reboot just
        lost it): transfers it originated stop retrying, and its
        receiver-side dedup memory is cleared — a retransmission that
        arrives after the reboot is delivered again (upper layers
        absorb the duplicate via derivation identity)."""
        for key in [k for k in self._pending if k[0] == node_id]:
            del self._pending[key]
        self._seen.pop(node_id, None)

    # -- sender side -----------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        message: Message,
        deliver: Callable[[Message], None],
        on_status: Optional[StatusCallback] = None,
    ) -> None:
        # Once per send, reading the radio's delays now (tests change
        # them).
        radio = self.radio
        timeout = ACK_TIMEOUT_FLIGHTS * (radio.delay_base + radio.delay_jitter)
        key = (src, dst, message.msg_id)
        self._pending[key] = _Transfer(timeout, message, deliver, on_status)
        self._attempt(key)

    def _attempt(self, key) -> None:
        src, dst, _ = key
        radio = self.radio
        state = self._pending[key]
        state.attempt += 1
        attempt = state.attempt
        if attempt > 1:
            radio.metrics.retries += 1
            radio._emit("retry", src, dst, state.message, attempt=attempt)
        # Partials (not lambdas) throughout this state machine: pending
        # frames and retry timers live in the event queue, which shard
        # checkpoints pickle mid-run (see repro.net.checkpoint).
        radio._send_frame(
            src, dst, state.message,
            functools.partial(self._on_data, key, state.deliver),
        )
        # Exponential backoff with jitter: the timeout for the *next*
        # attempt grows even if this one succeeds (the timer just
        # no-ops then).  The jitter is drawn after the frame's own
        # draws, from the same source: ``sim.rng`` in event order, or
        # the link's keyed stream when sharding.
        frame_rng = radio.frame_rng
        rng = (
            radio.sim.rng if frame_rng is None else frame_rng.stream(src, dst)
        )
        timeout = state.timeout * (1.0 + rng.uniform(0, TIMEOUT_JITTER))
        state.timeout *= BACKOFF
        # Simulator.schedule written out (the timeout is >= 0, so the
        # timer is never in the past): one timer event per attempt,
        # under the next sequence number.
        sim = radio.sim
        seq = sim._seq = sim._seq + 1
        heapq.heappush(sim._queue, (
            sim.now + timeout, seq, functools.partial(self._on_timeout, key),
        ))

    def _on_timeout(self, key) -> None:
        state = self._pending.get(key)
        if state is None:
            return  # already concluded
        src, dst, _ = key
        if state.acked:
            del self._pending[key]
            return
        radio = self.radio
        if src in radio.death_time:
            del self._pending[key]  # a dead sender retries nothing
            return
        if state.attempt >= 1 + self.config.max_retries:
            del self._pending[key]
            radio.metrics.retry_exhausted += 1
            # Why did the budget run out?  A dead receiver is a
            # topology fault the routing layer can repair around; a
            # merely lossy link is not.  Upper layers key their
            # failure detectors on this distinction.
            reason = (
                GIVE_UP_DEAD if dst in radio.death_time else GIVE_UP_BUDGET
            )
            radio._emit(
                "give_up", src, dst, state.message, attempt=state.attempt,
                detail=reason,
            )
            notify_gave_up(state.on_status, reason)
            return
        self._attempt(key)

    # -- receiver side ---------------------------------------------------

    def _on_data(self, key, deliver, message) -> None:
        """A reliable frame physically arrived at its destination:
        dedup, ack, deliver.  Runs where the receiver lives — for a
        frame that crossed a shard border that is not where the
        transfer is pending, hence ``deliver`` as an argument.
        (``message`` is last so the send path can bind everything else
        in a partial and let the radio supply the frame.)"""
        src, dst, _ = key
        now = self.radio.sim.now
        if now >= self._prune_at:
            self._prune(now)
        dedup_key = (src, message.msg_id)
        seen = self._seen[dst]
        fresh = dedup_key not in seen
        if fresh:
            seen[dedup_key] = now
        else:
            # Retransmission of an already-delivered frame (its ack was
            # lost): suppress, but re-ack so the sender can stop.
            self.radio.metrics.dup_suppressed += 1
            self.radio._emit("dup", src, dst, message)
        ack = AckMsg(src, message.msg_id)
        self.radio._send_frame(
            dst, src, ack, functools.partial(self._on_ack, key)
        )
        if fresh:
            deliver(message)

    def _prune(self, now: float) -> None:
        """Forget every frame first received more than one retry
        horizon plus one flight ago (under the radio's delays now): its
        sender's last attempt has landed by then, so no duplicate of it
        can still arrive.  Runs at most once per such span, so the
        memory holds the receipts of the last one to two spans."""
        flight = self.radio.max_flight_delay
        span = flight + self.config.retry_horizon(flight)
        cutoff = now - span
        for dst, seen in self._seen.items():
            self._seen[dst] = {k: t for k, t in seen.items() if t > cutoff}
        self._prune_at = now + span

    def _on_ack(self, key, _frame=None) -> None:
        """An ack physically arrived back at the original sender."""
        state = self._pending.get(key)
        if state is None or state.acked:
            return  # duplicate ack, or transfer already concluded
        state.acked = True
        radio = self.radio
        radio.metrics.acks += 1
        if radio.observers:
            src, dst, _ = key
            radio._emit("ack", src, dst, state.message, attempt=state.attempt)
        if state.on_status is not None:
            state.on_status("delivered")
