"""The radio/link layer: single-hop transmission between neighbors.

Models per-hop latency (base + uniform jitter) and independent message
loss.  Bounded message delay — the assumption behind Theorems 1-3 — is
guaranteed by construction (delay <= delay_base + jitter).  Loss is the
original fault-injection knob for robustness experiments (E7); the
richer fault model — node crash/**revive** churn, transient link
up/down, partitions, energy-depletion deaths — is driven declaratively
by :mod:`repro.net.faults` (E20) through :meth:`Radio.kill`,
:meth:`Radio.revive` and :meth:`Radio.link_down`/:meth:`Radio.link_up`.
The paper's theorems assume none of these faults; the experiments
measure how gracefully results degrade when the assumptions break.

A frame's random draws — its loss draw (on a lossy radio), its delay
jitter and, for a reliable attempt, the retransmission-timeout jitter
— come from ``sim.rng`` in event order by default, or from the stream
of the frame's directed link when the radio has a
:class:`KeyedFrameRNG` (the sharded engine's discipline).

Two delivery modes:

* **unreliable** (default): fire-and-forget frames, exactly the
  substrate E1-E17 measure;
* **reliable** (``reliable=True`` or per-call): per-hop ack /
  retransmit / backoff / dedup via :mod:`repro.net.transport`, which
  restores bounded delivery on lossy links at a message-cost premium
  (E18).

All radio-layer occurrences are published as typed
:class:`~repro.net.events.RadioEvent`\\ s to subscribed observers,
none when nobody is; telemetry catches up from the
layer's own counts.
"""

from __future__ import annotations

import functools
import heapq
import random
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..core.errors import NetworkError
from ..obs import instrument as _inst
from ..obs import state as _obs
from .energy import CostBySize, rx_cost, tx_cost
from .events import RadioEvent, RadioObserver
from .messages import Message
from .metrics import MetricsCollector
from .sim import Simulator
from .transport import ReliableTransport, StatusCallback, TransportConfig

if TYPE_CHECKING:  # pragma: no cover
    from .network import SensorNetwork

#: Seconds of air a byte occupies at 250 kbit/s (a CC2420 radio).
_AIRTIME_PER_BYTE = 8.0 / 250_000.0


class KeyedFrameRNG:
    """Per-directed-link randomness: each link ``(src, dst)`` owns an
    independent stream seeded by ``f"link:{seed}:{src}:{dst}"``, and a
    frame's draws come from its link's stream in per-link send order.

    This makes every draw independent of the *global* interleaving of
    events, which is what lets a spatially sharded run (frames on a
    link are always sent by the shard owning ``src``, in that shard's
    local event order — the same order as the single-process run)
    reproduce the single-process simulation exactly.  String seeding is
    stable across processes and Python versions, unlike ``hash()``.
    """

    __slots__ = ("seed", "_streams")

    def __init__(self, seed: int):
        self.seed = seed
        self._streams: Dict[Tuple[int, int], random.Random] = {}

    def stream(self, src: int, dst: int) -> random.Random:
        """The RNG of directed link ``(src, dst)``, made on first use."""
        key = (src, dst)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = random.Random(
                f"link:{self.seed}:{src}:{dst}"
            )
        return stream


class Radio:
    """Delivers messages between neighboring nodes through the event queue."""

    def __init__(
        self,
        sim: Simulator,
        metrics: MetricsCollector,
        delay_base: float = 0.01,
        delay_jitter: float = 0.005,
        loss_rate: float = 0.0,
        battery_capacity: Optional[float] = None,
        collisions: bool = False,
        reliable: bool = False,
        transport: Optional[TransportConfig] = None,
        frame_rng=None,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise NetworkError(f"loss rate {loss_rate} out of range")
        self.sim = sim
        #: Where per-frame randomness comes from.  ``None`` (the
        #: default) draws from ``sim.rng`` in event order, read at each
        #: frame; a :class:`KeyedFrameRNG` switches to order-independent
        #: per-link streams (the sharded engine's discipline).
        self.frame_rng: Optional[KeyedFrameRNG] = frame_rng
        self.metrics = metrics
        #: Energy of sending / hearing one frame, by its size.
        self.tx_energy = CostBySize(tx_cost)
        self.rx_energy = CostBySize(rx_cost)
        self.delay_base = delay_base
        self.delay_jitter = delay_jitter
        self.loss_rate = loss_rate
        # Links are FIFO (as real MAC layers are): per directed link,
        # deliveries never overtake earlier ones.
        self._last_arrival: dict = {}
        # Finite batteries: a node whose radio energy exceeds the
        # capacity dies — it stops transmitting and receiving.  This is
        # how server hotspots translate into network partition
        # (Section III-A's "quick failure of the nodes close to the
        # server").
        self.battery_capacity = battery_capacity
        self.death_time: dict = {}
        #: node -> why it is currently dead ('crash' | 'energy' | ...).
        self.death_cause: dict = {}
        # Earliest death ever recorded — survives revive() so lifetime
        # metrics (E13) keep their meaning under churn.
        self._first_death: Optional[float] = None
        # Severed links (both orientations stored): frames across a
        # down link are dropped at the sender, like any other loss.
        self._down_links: set = set()
        #: RadioEvent observers (the one subscription point for traces,
        #: tests, ...).
        self.observers: List[RadioObserver] = []
        # First-order contention model (TOSSIM-ish CSMA behaviour): a
        # frame whose airtime at the receiver overlaps a frame from a
        # *different* sender is lost (the earlier frame captures the
        # channel).  Same-sender frames are FIFO-queued, never colliding.
        self.collisions = collisions
        self.collision_count = 0
        # dst -> (airtime_end, src) of the last frame heard there
        self._channel: dict = {}
        #: Default delivery mode for transmissions that don't say.
        self.reliable = reliable
        self.transport = ReliableTransport(self, transport or TransportConfig())
        _inst.own(metrics)
        _inst.own(self)

    def tallies(self):
        """Folded telemetry counts (:func:`repro.obs.instrument.own`)."""
        yield _inst.radio_collisions, (), self.collision_count

    # -- observers --------------------------------------------------------

    def subscribe(self, observer: RadioObserver) -> RadioObserver:
        """Register an observer for every :class:`RadioEvent`."""
        self.observers.append(observer)
        return observer

    def unsubscribe(self, observer: RadioObserver) -> None:
        self.observers.remove(observer)

    def _emit(
        self,
        event: str,
        src: int,
        dst: int,
        message: Message,
        attempt: int = 0,
        detail: str = "",
    ) -> None:
        # Nobody listening: build no RadioEvent.  The frame halves,
        # drops and acks test this themselves before they call.
        if not self.observers:
            return
        ev = RadioEvent(
            time=self.sim.now,
            event=event,
            src=src,
            dst=dst,
            message=message,
            category=message.category,
            size_bytes=message.size_bytes,
            attempt=attempt,
            detail=detail,
        )
        for observer in self.observers:
            observer(ev)

    # -- liveness ---------------------------------------------------------

    def airtime(self, size_bytes: int) -> float:
        return size_bytes * _AIRTIME_PER_BYTE

    def is_alive(self, node_id: int) -> bool:
        return node_id not in self.death_time

    def kill(self, node_id: int, cause: str = "crash") -> None:
        """Fail a node immediately (fault injection: crash, tamper,
        hardware or battery death).  The node stops transmitting and
        receiving; its stored replicas are simply unreachable — which
        is exactly the failure PA's replication is designed to ride
        out.  ``cause`` is recorded for telemetry ('crash', 'energy',
        ...); killing a dead node is a no-op."""
        if node_id in self.death_time:
            return
        now = self.sim.now
        self.death_time[node_id] = now
        self.death_cause[node_id] = cause
        if self._first_death is None or now < self._first_death:
            self._first_death = now
        if _obs.enabled:
            _inst.node_crashes.labels(cause=cause).inc()

    def revive(self, node_id: int) -> None:
        """Recover a previously killed node (the paired inverse of
        :meth:`kill`).  The node rejoins with *cleared queues*: its
        volatile radio state — per-link FIFO arrival times, channel
        occupancy, in-flight reliable transfers it originated, and its
        receiver-side dedup memory — is gone, exactly as a reboot
        would lose it.  Stored replicas/windows persist (they model
        flash, and re-synchronization is the upper layers' job: see
        ``GPAEngine.attach_faults``).  Reviving a live node is a no-op.

        Note for battery deaths: revive does not refill the battery —
        a node whose energy still exceeds the capacity dies again on
        its next transmission.
        """
        if node_id not in self.death_time:
            return
        del self.death_time[node_id]
        self.death_cause.pop(node_id, None)
        for link in [l for l in self._last_arrival if node_id in l]:
            del self._last_arrival[link]
        self._channel.pop(node_id, None)
        self.transport.forget(node_id)
        if _obs.enabled:
            _inst.node_recoveries.inc()

    def link_down(self, a: int, b: int) -> None:
        """Sever the bidirectional link between ``a`` and ``b``:
        frames across it are dropped at send time (transient link
        fault / partition cut)."""
        self._down_links.add((a, b))
        self._down_links.add((b, a))
        if _obs.enabled:
            _inst.link_faults.labels(state="down").inc()

    def link_up(self, a: int, b: int) -> None:
        """Restore a severed link (no-op if it was up)."""
        self._down_links.discard((a, b))
        self._down_links.discard((b, a))
        if _obs.enabled:
            _inst.link_faults.labels(state="up").inc()

    def link_is_up(self, a: int, b: int) -> bool:
        return (a, b) not in self._down_links

    def _check_battery(self, node_id: int) -> None:
        if (
            self.battery_capacity is not None
            and node_id not in self.death_time
            and self.metrics.energy[node_id] > self.battery_capacity
        ):
            self.kill(node_id, cause="energy")

    @property
    def first_death_time(self) -> Optional[float]:
        """Earliest death ever recorded (not erased by revive)."""
        return self._first_death

    @property
    def max_flight_delay(self) -> float:
        """Upper bound on a single frame's flight time."""
        return self.delay_base + self.delay_jitter

    @property
    def max_hop_delay(self) -> float:
        """Upper bound on one hop's latency (basis for tau_s / tau_j).

        In reliable mode a hop may spend the whole retry horizon before
        its final attempt flies, so the bound widens accordingly —
        reliability restores the theorems' bounded-delay assumption
        with a *larger* bound rather than breaking it.
        """
        flight = self.max_flight_delay
        if not self.reliable:
            return flight
        return flight + self.transport.config.retry_horizon(flight)

    # -- transmission ------------------------------------------------------

    def transmit(
        self,
        src_id: int,
        dst_id: int,
        message: Message,
        deliver: Callable[[Message], None],
        reliable: Optional[bool] = None,
        on_status: Optional[StatusCallback] = None,
    ) -> None:
        """Send one hop; the transmission is always paid for, delivery
        happens only if the message survives loss and both radios live.

        ``reliable=None`` uses the radio-wide default; reliable
        transfers retransmit until acked or the retry budget runs out,
        reporting ``on_status('delivered'|'gave_up')``.  The message's
        phase category lives on the message itself
        (``Message(..., category=...)``).
        """
        if reliable is None:
            reliable = self.reliable
        if reliable:
            self.transport.send(src_id, dst_id, message, deliver, on_status)
        else:
            self._send_frame(src_id, dst_id, message, deliver)

    def _send_frame(
        self,
        src_id: int,
        dst_id: int,
        message: Message,
        deliver: Callable[[Message], None],
    ) -> None:
        """One physical frame: energy, loss, FIFO, contention.  The
        transport layer sends data frames *and* acks through here, so
        acks pay energy and are lost/collided like any other frame.

        Split into a sender half (:meth:`_frame_departure`, everything
        up to the arrival time) and a receiver half
        (:meth:`_frame_arrival`) so the sharded engine can run the two
        halves in different worker processes; this method is the
        single-process composition of the two.  The frame's size is
        fixed here, once, and both halves charge it.
        """
        size = message.size_bytes
        arrival = self._frame_departure(src_id, dst_id, message, size)
        if arrival is None:
            return
        # Simulator.schedule_at written out (an arrival is never in the
        # past).  A partial, not a lambda, so in-flight frames sitting
        # in the event queue stay picklable: shard checkpoints snapshot
        # the queue mid-run (see repro.net.checkpoint).
        sim = self.sim
        seq = sim._seq = sim._seq + 1
        heapq.heappush(sim._queue, (arrival, seq, functools.partial(
            self._frame_arrival, src_id, dst_id, message, size, deliver,
        )))

    def _frame_departure(
        self, src_id: int, dst_id: int, message: Message, size: int
    ) -> Optional[float]:
        """Sender half of one frame of ``size`` bytes: pay the
        transmission, apply loss / severed-link / contention fates, fix
        the arrival time (delay draw plus per-link FIFO ordering).
        Returns the arrival time, or ``None`` when the frame dies before
        reaching the air at the receiver."""
        # Per frame of every simulation: is_alive, _emit's no-listener
        # test, _check_battery, airtime and the collector's counting are
        # written out, each reading its attribute now (tests and the
        # fault injector change them).
        dead = self.death_time
        if src_id in dead:
            return None  # dead nodes transmit nothing
        category = message.category
        metrics = self.metrics
        metrics.tx_count[src_id] += 1
        metrics.tx_bytes[src_id] += size
        metrics.category_tx[category] += 1
        metrics.category_bytes[category] += size
        metrics.energy[src_id] += self.tx_energy[size]
        if self.observers:
            self._emit("tx", src_id, dst_id, message)
        if self.battery_capacity is not None:
            self._check_battery(src_id)
        if dst_id in dead:
            self._drop(src_id, dst_id, message, reason="dead")
            return None  # nobody listening
        if self._down_links and (src_id, dst_id) in self._down_links:
            self._drop(src_id, dst_id, message, reason="link_down")
            return None  # severed link: nothing crosses the cut
        # The frame's draws: loss (only on a lossy radio), then delay.
        frame_rng = self.frame_rng
        rng = (
            self.sim.rng if frame_rng is None
            else frame_rng.stream(src_id, dst_id)
        )
        lost = bool(self.loss_rate) and rng.random() < self.loss_rate
        if lost and not self.collisions:
            self._drop(src_id, dst_id, message, reason="loss")
            return None
        delay = self.delay_base + rng.uniform(0, self.delay_jitter)
        arrival = self.sim.now + delay
        link = (src_id, dst_id)
        previous = self._last_arrival.get(link)
        if previous is not None and arrival <= previous:
            arrival = previous + 1e-9  # FIFO: queue behind the last frame
        self._last_arrival[link] = arrival
        message.hops += 1
        if self.collisions:
            start = arrival - size * _AIRTIME_PER_BYTE
            prev = self._channel.get(dst_id)
            if prev is not None and prev[1] != src_id and start < prev[0]:
                self.collision_count += 1
                self._emit("collision", src_id, dst_id, message)
                self._drop(src_id, dst_id, message, reason="collision")
                return None
            # The frame occupies the ether at the receiver whether or
            # not it decodes — a frame fated to be lost is still noise
            # a later frame can collide with (real CSMA doesn't know
            # the frame will be lost).
            self._channel[dst_id] = (arrival, src_id)
            if lost:
                self._drop(src_id, dst_id, message, reason="loss")
                return None
        return arrival

    def _frame_arrival(
        self,
        src_id: int,
        dst_id: int,
        message: Message,
        size: int,
        deliver: Callable[[Message], None],
    ) -> None:
        """Receiver half of one frame of ``size`` bytes, run at its
        arrival time."""
        if dst_id in self.death_time:
            self._drop(src_id, dst_id, message, reason="dead")
            return  # died while the frame was in the air
        metrics = self.metrics
        metrics.rx_count[dst_id] += 1
        metrics.rx_bytes[dst_id] += size
        metrics.energy[dst_id] += self.rx_energy[size]
        if self.observers:
            self._emit("rx", src_id, dst_id, message)
        if self.battery_capacity is not None:
            self._check_battery(dst_id)
        deliver(message)

    def _drop(self, src: int, dst: int, message: Message, reason: str = "") -> None:
        """One lost message: metrics and observers."""
        self.metrics.dropped += 1
        if self.observers:
            self._emit("drop", src, dst, message, detail=reason)
