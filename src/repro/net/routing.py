"""Multi-hop routing substrate.

Real deployments run a routing protocol (e.g. tree routing, GPSR); its
steady-state product is a next-hop table per destination.  We model
that product directly: every node consults, hop by hop, the
shortest-path tree rooted at the destination.  Route-maintenance
traffic is not modeled — the paper's costs exclude it for all compared
schemes alike, so shapes are unaffected.

The trees are demand-driven.  Per destination the router keeps a
breadth-first search *in progress*: the parent map, the discovery
queue and a cursor into it.  A lookup expands the frontier from the
destination, in the graph's own adjacency order, only until the asking
node has a parent; the next miss resumes from the cursor.  Discovery
order is that of a full breadth-first traversal (networkx's is the
oracle in the tests), so every parent handed out equals the one a
complete table would hold, while a route a few hops long costs a ball
of a few hops instead of one entry per node of the deployment.

Self-repair (E20): the fault layer feeds the router a liveness view —
:meth:`Router.exclude`/:meth:`Router.restore` for nodes,
:meth:`Router.exclude_edge`/:meth:`Router.restore_edge` for links.
The search skips excluded nodes and links, and every change of the view
drops the searches made under the old one — the steady-state product
of a route-maintenance protocol reacting to failures ("Power Aware
Routing for Sensor Databases" maintains exactly this).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from ..core.errors import NetworkError
from .topology import Topology


class Router:
    """Hop-by-hop shortest-path routing over a static topology."""

    def __init__(self, topology: Topology):
        self.topology = topology
        # _tables[dst] = [parents, queue, cursor]: the BFS from dst over
        # the current liveness view, as far as lookups have driven it.
        # parents[node] is node's neighbor one hop closer to dst; queue
        # is the discovery order, expanded up to cursor.  Plain data, so
        # a checkpoint carries half-expanded searches as they are.
        self._tables: Dict[int, list] = {}
        # Liveness view (fed by the fault layer / failure detector).
        self._excluded_nodes: Set[int] = set()
        self._excluded_edges: Set[Tuple[int, int]] = set()
        #: Next-hop re-selections performed after delivery failures
        #: (incremented by the failure detector in Node._forward).
        self.repairs = 0

    # -- liveness view -----------------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether anything is currently excluded from routing."""
        return bool(self._excluded_nodes or self._excluded_edges)

    def exclude(self, node: int) -> None:
        """Remove a (dead) node from the routing view."""
        if node not in self._excluded_nodes:
            self._excluded_nodes.add(node)
            self._tables.clear()

    def restore(self, node: int) -> None:
        """Return a recovered node to the routing view."""
        if node in self._excluded_nodes:
            self._excluded_nodes.discard(node)
            self._tables.clear()

    def exclude_edge(self, a: int, b: int) -> None:
        """Remove a (severed) link from the routing view."""
        edge = (a, b) if a < b else (b, a)
        if edge not in self._excluded_edges:
            self._excluded_edges.add(edge)
            self._tables.clear()

    def restore_edge(self, a: int, b: int) -> None:
        """Return a restored link to the routing view."""
        edge = (a, b) if a < b else (b, a)
        if edge in self._excluded_edges:
            self._excluded_edges.discard(edge)
            self._tables.clear()

    # -- tables ------------------------------------------------------------

    def _expand(self, table: list, node: int) -> None:
        """Resume the search in ``table`` until ``node`` is discovered
        or the live component of the destination is exhausted."""
        parents, queue, cursor = table
        # Read through the topology on every call, never kept on the
        # router: a checkpoint stubs the topology and so leaves it out.
        adj = self.topology.adjacency
        dead_nodes, dead_edges = self._excluded_nodes, self._excluded_edges
        while cursor < len(queue) and node not in parents:
            parent = queue[cursor]
            cursor += 1
            for child in adj[parent]:
                if child in parents or child in dead_nodes:
                    continue
                if dead_edges and (
                    (parent, child) if parent < child else (child, parent)
                ) in dead_edges:
                    continue
                parents[child] = parent
                queue.append(child)
        table[2] = cursor

    def next_hop(self, node: int, dst: int) -> int:
        """The neighbor of ``node`` on a shortest path to ``dst``
        (over the live subgraph while the view is degraded)."""
        if node == dst:
            raise NetworkError(f"node {node} routing to itself")
        table = self._tables.get(dst)
        if table is None:
            # Nothing routes to a dead destination: its search is born
            # exhausted.
            queue = [] if dst in self._excluded_nodes else [dst]
            table = self._tables[dst] = [{dst: dst}, queue, 0]
        hop = table[0].get(node)
        if hop is None:
            self._expand(table, node)
            hop = table[0].get(node)
            if hop is None:
                raise NetworkError(f"no route from {node} to {dst}")
        return hop

    def envelope_hop(self, node: int, envelope) -> int:
        """Next hop for a routed envelope at ``node`` — the per-message
        entry point :meth:`Node._forward` uses, so subclasses can keep
        per-envelope forwarding state (the geographic router's
        greedy-then-fallback mode).  The base router ignores the
        envelope beyond its destination."""
        dst = envelope.dst
        table = self._tables.get(dst)
        if table is not None:
            hop = table[0].get(node)
            if hop is not None and node != dst:
                return hop
        return self.next_hop(node, dst)

    def hop_distance(self, a: int, b: int) -> int:
        """Hop count of :meth:`path` (0 when a == b)."""
        return len(self.path(a, b)) - 1

    def path(self, a: int, b: int) -> List[int]:
        """The node sequence a .. b that hop-by-hop forwarding follows."""
        out = [a]
        node = a
        while node != b:
            node = self.next_hop(node, b)
            out.append(node)
        return out


class GeoRouter(Router):
    """Greedy geographic routing with a BFS-table escape hatch.

    Geographic forwarding (GPSR's greedy mode) replaces the table with
    an O(degree) rule: hand the envelope to the neighbor strictly
    closest (Euclidean) to the destination's position, ties broken by
    lowest id.  Each greedy hop strictly shrinks the distance to the
    destination, so greedy forwarding can never loop.

    At a local minimum (no neighbor strictly closer — a routing void),
    or when the liveness view is degraded (greedy forwarding knows
    nothing of dead nodes and links), the envelope *permanently* falls
    back to table forwarding for its remaining hops.  The permanence
    matters: a stateless per-hop fallback could bounce between a greedy
    hop and a table hop forever, while table-only forwarding strictly
    shrinks the hop count and must terminate.  The fallback is tracked
    on the envelope (``RoutedEnvelope.geo_fallback``), so concurrent
    envelopes don't interfere.  Voids are *not* rare on
    sparse unit-disk deployments: the 20 000-node E19b round (r = 1.8)
    falls back for 342 destinations.  Their searches stop once the node
    at the void is found, at 200 319 parents together (median 118 per
    destination) where full tables would hold 6.8 million.

    Deterministic and topology-pure, hence identical across shard
    workers.  Opt-in (``SensorNetwork(routing="geo")``): the default
    BFS router stays byte-identical for every existing workload.
    """

    def greedy_hop(self, node: int, dst: int) -> Optional[int]:
        """The neighbor strictly closer to ``dst`` than ``node`` is,
        minimizing (distance, id); None at a local minimum."""
        positions = self.topology.positions
        px, py = positions[dst]
        nx_, ny = positions[node]
        here = math.hypot(nx_ - px, ny - py)
        best: Optional[Tuple[float, int]] = None
        for nbr in self.topology.neighbors(node):
            qx, qy = positions[nbr]
            d = math.hypot(qx - px, qy - py)
            if d < here:
                cand = (d, nbr)
                if best is None or cand < best:
                    best = cand
        return None if best is None else best[1]

    def envelope_hop(self, node: int, envelope) -> int:
        if node == envelope.dst:
            raise NetworkError(f"node {node} routing to itself")
        if not (self.degraded or envelope.geo_fallback):
            hop = self.greedy_hop(node, envelope.dst)
            if hop is not None:
                return hop
        envelope.geo_fallback = True  # table mode from here on
        return self.next_hop(node, envelope.dst)

    def path(self, a: int, b: int) -> List[int]:
        """The sequence an envelope from ``a`` to ``b`` follows (greedy
        until the first void or under a degraded view, table after)."""
        out = [a]
        fallback = self.degraded
        while out[-1] != b:
            hop = None if fallback else self.greedy_hop(out[-1], b)
            if hop is None:
                fallback = True
                hop = self.next_hop(out[-1], b)
            out.append(hop)
        return out
