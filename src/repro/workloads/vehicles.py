"""Battlefield vehicle-tracking workload (Example 1).

Enemy and friendly vehicles move through the sensor field; the sensor
nearest a vehicle emits a ``veh(type, location, time)`` detection each
epoch.  The uncovered-enemy query then flags enemy vehicles more than
``cover_range`` away from every friendly vehicle.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

from ..net.topology import Topology

Detection = Tuple[float, int, str, tuple]  # (time, node, "veh", args)


class Vehicle:
    """A vehicle on a straight-line patrol with constant velocity."""

    def __init__(self, kind: str, start: Tuple[float, float], velocity: Tuple[float, float]):
        self.kind = kind
        self.start = start
        self.velocity = velocity

    def position(self, t: float) -> Tuple[float, float]:
        return (
            self.start[0] + self.velocity[0] * t,
            self.start[1] + self.velocity[1] * t,
        )


#: Simulated seconds between two detection epochs.
EPOCH_INTERVAL = 1.0

#: Distance a vehicle covers per simulated second.
SPEED = 0.5


class BattlefieldWorkload:
    """Generates detections for a mix of enemy and friendly vehicles."""

    def __init__(
        self,
        topology: Topology,
        n_enemy: int = 3,
        n_friendly: int = 2,
        epochs: int = 5,
        seed: int = 0,
    ):
        self.topology = topology
        self.epochs = epochs
        rng = random.Random(seed)
        x0, y0, x1, y1 = topology.bounding_box()
        self.vehicles: List[Vehicle] = []
        for i in range(n_enemy + n_friendly):
            kind = "enemy" if i < n_enemy else "friendly"
            start = (rng.uniform(x0, x1), rng.uniform(y0, y1))
            angle = rng.uniform(0, 2 * math.pi)
            velocity = (SPEED * math.cos(angle), SPEED * math.sin(angle))
            self.vehicles.append(Vehicle(kind, start, velocity))

    def detections(self) -> List[Detection]:
        """All detections, time-ordered: at each epoch, the node nearest
        each vehicle reports it."""
        out: List[Detection] = []
        x0, y0, x1, y1 = self.topology.bounding_box()
        for epoch in range(self.epochs):
            t = epoch * EPOCH_INTERVAL
            for vehicle in self.vehicles:
                pos = vehicle.position(t)
                if not (x0 <= pos[0] <= x1 and y0 <= pos[1] <= y1):
                    continue  # left the field: no detection this epoch
                node = self.topology.nearest_node(pos)
                loc = (round(pos[0], 2), round(pos[1], 2))
                out.append((t, node, "veh", (vehicle.kind, loc, epoch)))
        return out

    @staticmethod
    def uncovered_oracle(
        detections: Sequence[Detection], cover_range: float
    ) -> set:
        """Ground truth: enemy detections with no friendly detection of
        the same epoch within ``cover_range``."""
        by_epoch: dict = {}
        for _t, _node, _pred, (kind, loc, epoch) in detections:
            by_epoch.setdefault(epoch, []).append((kind, loc))
        out = set()
        for epoch, rows in by_epoch.items():
            friendlies = [loc for kind, loc in rows if kind == "friendly"]
            for kind, loc in rows:
                if kind != "enemy":
                    continue
                covered = any(
                    math.hypot(loc[0] - f[0], loc[1] - f[1]) <= cover_range
                    for f in friendlies
                )
                if not covered:
                    out.add((loc, epoch))
        return out
