"""Declarative routing — the [12] (SNLog/declarative networking) use
case the paper's framework subsumes.

The two-rule distance-vector program computes bounded-cost routing
tables entirely in-network with localized joins::

    route(X, Y, Y, 1)      :- g(X, Y).
    route(X, D, Y, C + 1)  :- g(X, Y), route(Y, D, _, C), C + 1 <= BOUND.

``route(X, D, N, C)`` — node X can reach D via next hop N at cost C.
Facts are placed at their first argument (each node owns its routing
table) and replicated to neighbors so rule 2 joins locally; the cost
bound keeps the recursion finite (the "maximum metric" of RIP).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..core.errors import PlanError
from ..net.network import SensorNetwork
from .localized import LocalizedEngine, Placement


def routing_program(bound: int) -> str:
    return f"""
        route(X, Y, Y, 1) :- g(X, Y).
        route(X, D, Y, C + 1) :- g(X, Y), route(Y, D, _, C),
                                 C + 1 <= {bound}.
    """


def routing_placements() -> Dict[str, Placement]:
    return {
        "g": Placement(1, extra_attrs=[0]),
        "route": Placement(0, replicate_to_neighbors=True),
    }


def build_routing(
    network: SensorNetwork, bound: Optional[int] = None
) -> LocalizedEngine:
    """Install and seed the routing program; run the network to
    converge.  ``bound`` defaults to the topology diameter."""
    if bound is None:
        bound = network.topology.diameter
    if bound < 1:
        raise PlanError("routing bound must be at least 1")
    engine = LocalizedEngine(
        routing_program(bound), network, routing_placements()
    ).install()
    engine.seed_edges("g")
    # Base routes (rule 1) fire off the seeded edges, which seed_edges
    # installed silently.
    engine.fire_stored("g")
    return engine


class RoutingTable:
    """Read-side view over the converged route relation."""

    def __init__(self, engine: LocalizedEngine):
        self.engine = engine
        # (src, dst) -> (cost, next_hop), keeping the cheapest entry
        self.best: Dict[Tuple[int, int], Tuple[int, int]] = {}
        from .localized import visible_rows

        for (src, dst, nhop, cost) in visible_rows(engine, "route"):
            key = (src, dst)
            current = self.best.get(key)
            if current is None or (cost, nhop) < current:
                self.best[key] = (cost, nhop)

    def cost(self, src: int, dst: int) -> Optional[int]:
        entry = self.best.get((src, dst))
        return entry[0] if entry else None

    def next_hop(self, src: int, dst: int) -> Optional[int]:
        entry = self.best.get((src, dst))
        return entry[1] if entry else None

    def path(self, src: int, dst: int, max_len: int = 1_000) -> Optional[list]:
        """Follow next hops from src to dst."""
        if src == dst:
            return [src]
        path = [src]
        node = src
        for _ in range(max_len):
            hop = self.next_hop(node, dst)
            if hop is None:
                return None
            path.append(hop)
            if hop == dst:
                return path
            node = hop
        return None

    def coverage(self) -> float:
        """Fraction of (src, dst) pairs with a route."""
        n = len(self.engine.network)
        pairs = n * (n - 1)
        return len([k for k in self.best if k[0] != k[1]]) / pairs if pairs else 1.0
