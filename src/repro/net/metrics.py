"""Communication and energy metrics.

The evaluation section's headline numbers are communication costs:
total messages, total bytes, the per-node load distribution (hotspots
kill networks: nodes near a central server die first, Section III-A),
and energy.  The collector holds the counts; the radio writes them, one
transmission and one reception per frame (``Radio._frame_departure`` /
``_frame_arrival``, with the per-frame energy of :mod:`repro.net.energy`),
and the reliable transport its acks, retries and suppressed duplicates.
Transmissions also count under the message's free-form category
("storage", "join", "result", "control", ...) so benchmarks can break
costs down by phase.
``repro.obs``'s radio and transport families catch up from the
collector a :class:`~repro.net.radio.Radio` records into.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from ..obs import instrument as _inst


class MetricsCollector:
    """Counts transmissions, receptions, bytes and energy per node and
    per category."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        _inst.catch_up(self, zero=True)  # telemetry keeps what it saw
        if not hasattr(self, "tx_count"):
            self.tx_count: Dict[int, int] = defaultdict(int)
            self.rx_count: Dict[int, int] = defaultdict(int)
            self.tx_bytes: Dict[int, int] = defaultdict(int)
            self.rx_bytes: Dict[int, int] = defaultdict(int)
            self.category_tx: Dict[str, int] = defaultdict(int)
            self.category_bytes: Dict[str, int] = defaultdict(int)
            self.energy: Dict[int, float] = defaultdict(float)
        else:
            # Clear in place (not reassign) so code holding a direct
            # reference to a map — including the category maps — sees
            # the reset rather than a stale snapshot.
            for counts in (
                self.tx_count, self.rx_count, self.tx_bytes, self.rx_bytes,
                self.category_tx, self.category_bytes, self.energy,
            ):
                counts.clear()
        self.dropped = 0
        # Reliable-transport counters (all zero in unreliable mode).
        self.acks = 0
        self.retries = 0
        self.dup_suppressed = 0
        self.retry_exhausted = 0

    def tallies(self):
        """Folded telemetry counts (:func:`repro.obs.instrument.own`)."""
        for category, n in self.category_tx.items():
            yield _inst.radio_tx, (category,), n
        yield _inst.radio_rx, (), sum(self.rx_count.values())
        yield _inst.radio_drops, (), self.dropped
        yield _inst.radio_acks, (), self.acks
        yield _inst.radio_retries, (), self.retries
        yield _inst.radio_dup_suppressed, (), self.dup_suppressed
        yield _inst.radio_retry_exhausted, (), self.retry_exhausted

    def merge(self, other: "MetricsCollector") -> None:
        """Fold another collector's counts into this one (sharded runs:
        tx is recorded in the sender's shard and rx in the receiver's,
        so per-node maps from different shards are disjoint and a plain
        sum reassembles the single-process totals)."""
        for mine, theirs in (
            (self.tx_count, other.tx_count), (self.rx_count, other.rx_count),
            (self.tx_bytes, other.tx_bytes), (self.rx_bytes, other.rx_bytes),
            (self.category_tx, other.category_tx),
            (self.category_bytes, other.category_bytes),
            (self.energy, other.energy),
        ):
            for key, value in theirs.items():
                mine[key] += value
        self.dropped += other.dropped
        self.acks += other.acks
        self.retries += other.retries
        self.dup_suppressed += other.dup_suppressed
        self.retry_exhausted += other.retry_exhausted

    # -- summaries ------------------------------------------------------

    @property
    def total_messages(self) -> int:
        return sum(self.tx_count.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.tx_bytes.values())

    @property
    def total_energy(self) -> float:
        return sum(self.energy.values())

    @property
    def max_node_load(self) -> int:
        """Transmissions at the busiest node — the hotspot metric."""
        return max(self.tx_count.values(), default=0)

    def load_imbalance(self, n_nodes: Optional[int] = None) -> float:
        """max/mean transmission load (1.0 = perfectly balanced).

        By default the mean is over nodes that transmitted at least
        once; pass ``n_nodes`` (the network size) to average over the
        whole network, which exposes hotspots that the
        transmitters-only mean hides (one busy node out of a hundred
        idle ones is *not* balanced).  An idle network — no
        transmissions at all, or explicitly-zeroed entries only — is
        trivially balanced and reports 1.0.
        """
        loads = [n for n in self.tx_count.values() if n > 0]
        if not loads:
            return 1.0
        denominator = len(loads) if n_nodes is None else max(n_nodes, len(loads))
        mean = sum(loads) / denominator
        return max(loads) / mean

    def summary(self) -> Dict[str, float]:
        out = {
            "messages": self.total_messages,
            "bytes": self.total_bytes,
            "energy_uJ": round(self.total_energy, 1),
            "max_node_load": self.max_node_load,
            "load_imbalance": round(self.load_imbalance(), 2),
            "dropped": self.dropped,
            **{f"msgs[{c}]": n for c, n in sorted(self.category_tx.items())},
        }
        if self.acks or self.retries or self.dup_suppressed or self.retry_exhausted:
            out.update(
                acks=self.acks,
                retries=self.retries,
                dup_suppressed=self.dup_suppressed,
                retry_exhausted=self.retry_exhausted,
            )
        return out

    def __repr__(self) -> str:
        return f"MetricsCollector({self.summary()!r})"
