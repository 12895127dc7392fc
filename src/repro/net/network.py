"""The assembled sensor network: topology + simulator + radio + routing
+ geographic hashing + metrics.

This is the object benchmarks and examples construct; the distributed
deductive engine installs its per-node runtimes onto ``network.nodes``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..core.errors import NetworkError
from .ght import GeographicHash
from .metrics import MetricsCollector
from .node import Node
from .radio import KeyedFrameRNG, Radio
from .routing import GeoRouter, Router
from .sim import LocalClock, Simulator
from .topology import GridTopology, RandomGeometricTopology, Topology
from .transport import TransportConfig


class _RemoteStub:
    """Placeholder for a node owned by another shard worker.

    Sharded networks instantiate :class:`Node` objects only for their
    own partition; code that merely needs *a deliver callable for the
    far end of a link* (``Node.send``, ``Node._forward``) gets one of
    these instead.  The sharded radio recognizes the stub and turns the
    frame into a border-crossing record before the callable could ever
    run — actually invoking it is a bug, and says so.
    """

    __slots__ = ("id",)

    def __init__(self, node_id: int):
        self.id = node_id

    def deliver(self, message) -> None:
        raise NetworkError(
            f"node {self.id} lives in another shard; its deliver stub "
            "must never run locally (frames to it cross at the border)"
        )

    def __repr__(self) -> str:
        return f"_RemoteStub({self.id})"


class SensorNetwork:
    """A simulated multi-hop sensor network.

    ``reliable=True`` turns on per-hop ack/retransmit/dedup for every
    transmission (see :mod:`repro.net.transport`); ``transport`` tunes
    its timeouts/budget.  ``ght_replicas=k`` stores each GHT key at its
    k-nearest nodes (failover under churn, E20); ``self_repair=True``
    enables the delivery-failure-triggered routing repair in
    :meth:`Node._forward` (a :class:`~repro.net.faults.FaultInjector`
    with ``repair=True`` flips this on when armed).  The defaults stay
    fire-and-forget / single-home / static-routes, so all E1-E17
    numbers are unchanged unless the fault machinery is requested.
    """

    def __init__(
        self,
        topology: Topology,
        seed: int = 0,
        delay_base: float = 0.01,
        delay_jitter: float = 0.005,
        loss_rate: float = 0.0,
        clock_skew: float = 0.0,
        battery_capacity: float = None,
        collisions: bool = False,
        reliable: bool = False,
        transport: Optional[TransportConfig] = None,
        ght_replicas: int = 1,
        self_repair: bool = False,
        routing: str = "bfs",
        frame_rng: str = "seq",
        node_subset: Optional[Iterable[int]] = None,
        radio_cls: type = Radio,
    ):
        """``routing="geo"`` swaps the per-destination BFS tables for
        greedy geographic forwarding (O(degree) per hop — the 100k+
        regime needs it); ``frame_rng="keyed"`` draws frame randomness
        (loss, delay and retransmission-timeout jitter) from per-link
        :class:`KeyedFrameRNG` streams, order-independent and hence
        shard-invariant, instead of from ``sim.rng`` in event order
        (the default ``"seq"``); ``node_subset`` instantiates
        :class:`Node` objects (and pays their setup) only for the given
        partition, answering :meth:`node` with remote stubs elsewhere.
        All three default to the historical behavior.
        """
        self.topology = topology
        self.sim = Simulator(seed)
        self.metrics = MetricsCollector()
        if frame_rng not in ("seq", "keyed"):
            raise NetworkError(f"unknown frame_rng discipline {frame_rng!r}")
        self.radio = radio_cls(
            self.sim, self.metrics, delay_base, delay_jitter, loss_rate,
            battery_capacity=battery_capacity, collisions=collisions,
            reliable=reliable, transport=transport,
            frame_rng=KeyedFrameRNG(seed) if frame_rng == "keyed" else None,
        )
        if routing not in ("bfs", "geo"):
            raise NetworkError(f"unknown routing mode {routing!r}")
        self.router = (GeoRouter if routing == "geo" else Router)(topology)
        self.ght = GeographicHash(topology, replicas=ght_replicas)
        self.self_repair = self_repair
        self.clock_skew = clock_skew
        self.nodes: Dict[int, Node] = {}
        self._stubs: Dict[int, _RemoteStub] = {}
        subset = None if node_subset is None else set(node_subset)
        #: The node ids this network instance owns (all of them unless
        #: a shard partition was given).
        self.local_ids = (
            set(topology.node_ids) if subset is None else subset
        )
        for node_id in topology.node_ids:
            # Skew draws always iterate the full id set in global order
            # so a partitioned worker assigns every node the same skew
            # the single-process network would.
            skew = self.sim.rng.uniform(-clock_skew / 2, clock_skew / 2) if clock_skew else 0.0
            if subset is None or node_id in subset:
                self.nodes[node_id] = Node(node_id, self, LocalClock(self.sim, skew))

    # -- accessors ----------------------------------------------------------

    def node(self, node_id: int) -> Node:
        node = self.nodes.get(node_id)
        if node is None:
            if node_id in self.local_ids or node_id not in self.topology.node_id_set:
                raise NetworkError(f"unknown node {node_id}")
            stub = self._stubs.get(node_id)
            if stub is None:
                stub = self._stubs[node_id] = _RemoteStub(node_id)
            return stub  # type: ignore[return-value]
        return node

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def spatial(self):
        """The topology's uniform-grid spatial index (geometric queries
        at network level go through here)."""
        return self.topology.spatial

    def nearest_node(self, point) -> int:
        """Node closest to a geographic point (O(1) expected)."""
        return self.topology.nearest_node(point)

    def nearest_nodes(self, point, k: int):
        """The k nodes closest to a geographic point."""
        return self.topology.nearest_nodes(point, k)

    @property
    def tau_c(self) -> float:
        """Bound on the clock difference between any two nodes."""
        return self.clock_skew

    # -- running --------------------------------------------------------------

    def run_until(self, when: float) -> int:
        return self.sim.run(until=when)

    def run_all(self, max_events: int = 10_000_000) -> int:
        return self.sim.run_all(max_events)

    @property
    def now(self) -> float:
        return self.sim.now


class GridNetwork(SensorNetwork):
    """Convenience: a SensorNetwork over an m x n unit grid."""

    def __init__(self, m: int, n: Optional[int] = None, **kwargs):
        super().__init__(GridTopology(m, n), **kwargs)

    @property
    def grid(self) -> GridTopology:
        return self.topology  # type: ignore[return-value]


class RandomNetwork(SensorNetwork):
    """Convenience: a SensorNetwork over a random unit-disk deployment."""

    def __init__(
        self,
        n: int,
        radius: float = 2.0,
        side: float = 10.0,
        seed: int = 0,
        **kwargs,
    ):
        super().__init__(
            RandomGeometricTopology(n, radius, side, seed), seed=seed, **kwargs
        )
