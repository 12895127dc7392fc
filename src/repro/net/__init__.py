"""Sensor-network simulator: the TOSSIM substitute.

Discrete-event engine, unit-disk topologies, lossy radio with bounded
delays, shortest-path routing, geographic hashing, TAG aggregation, and
communication/energy metrics.
"""

from .aggregation import TagAggregator, naive_collect_cost
from .events import RadioEvent, RadioObserver
from .ght import GeographicHash, stable_hash
from .messages import BYTES_PER_SYMBOL, HEADER_BYTES, Message
from .metrics import MetricsCollector
from .network import GridNetwork, RandomNetwork, SensorNetwork
from .node import Node, RoutedEnvelope
from .radio import Radio
from .routing import Router
from .sim import LocalClock, Simulator
from .transport import AckMsg, ReliableTransport, TransportConfig
from .topology import (
    GridTopology,
    Position,
    RandomGeometricTopology,
    Topology,
    topology_from_edges,
)
from .visual import heatmap, load_heatmap

__all__ = [
    "TagAggregator", "naive_collect_cost", "RadioEvent",
    "RadioObserver", "GeographicHash",
    "stable_hash", "BYTES_PER_SYMBOL", "HEADER_BYTES", "Message",
    "MetricsCollector", "GridNetwork", "RandomNetwork", "SensorNetwork",
    "Node", "RoutedEnvelope", "Radio", "Router", "LocalClock", "Simulator",
    "AckMsg", "ReliableTransport", "TransportConfig",
    "GridTopology", "Position", "RandomGeometricTopology", "Topology",
    "topology_from_edges", "heatmap",
    "load_heatmap",
]
