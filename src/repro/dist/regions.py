"""Storage and join-computation regions — the Generalized Perpendicular
Approach (Section III-A).

The core idea of PA is a pair of region families such that **every
storage region intersects every join-computation region**: a tuple is
replicated over its storage region, and an update's join phase
traverses its join region, meeting the full sliding window of every
operand stream on the way.

Strategies provided (all instances of GPA):

* :class:`PerpendicularRegions` — the paper's construction on 2-D grids
  (storage along the generating node's horizontal line, join along its
  vertical line);
* :class:`VirtualGridRegions` — the generalization to arbitrary
  topologies: nodes are ranked by y into √N equal "rows" and by x within
  each row; column *i* is the set of i-th nodes of every row, so every
  row intersects every column by construction (the [44] idea);
* :class:`BroadcastRegions` — degenerate GPA: storage region = entire
  network, join region = the local node;
* :class:`LocalStorageRegions` — degenerate GPA: storage region = the
  local node, join region = the entire network;
* :class:`CentralizedRegions` — every tuple shipped to a server node
  (default: a corner), joins at the server — the naive baseline whose
  hotspot kills the nodes around the server;
* :class:`CentroidRegions` — like centralized but at the topological
  center, the Centroid Approach PA is compared against.

Spatial constraints (Section III-A) clip both regions to a radius
around the generating node via :class:`SpatialClip`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import PlanError
from ..net.network import SensorNetwork
from ..net.topology import GridTopology, bfs_levels


class RegionStrategy:
    """Abstract GPA instance.

    ``storage_paths(origin)`` — node sequences (starting adjacent to the
    origin's position in the region) along which replicas propagate; the
    origin itself always stores a copy and is not listed.

    ``join_path(origin)`` — the node sequence the join phase traverses
    (the origin may or may not belong to it); consecutive entries are
    connected by routed hops.
    """

    name = "abstract"

    def __init__(self, network: SensorNetwork):
        self.network = network

    def storage_paths(self, origin: int) -> List[List[int]]:
        raise NotImplementedError

    def join_path(self, origin: int) -> List[int]:
        raise NotImplementedError

    def join_alternates(self, member: int) -> Sequence[int]:
        """Live-substitute candidates for a dead join-path ``member``,
        in preference order.

        PA's invariant — every storage region intersects every join
        region — means a join-region member's *storage-region mates*
        hold the same replicated window it does, so any live mate can
        stand in for it when it dies (E20's churn repair).  Strategies
        without that structure return nothing (default): a dead member
        is simply skipped.
        """
        return ()

    # -- timing bounds ------------------------------------------------------

    def storage_hops_bound(self) -> int:
        """Upper bound on hops for any storage phase (for tau_s)."""
        raise NotImplementedError

    def join_hops_bound(self) -> int:
        """Upper bound on hops for any join phase (for tau_j)."""
        raise NotImplementedError


class PerpendicularRegions(RegionStrategy):
    """The paper's PA on an m x n grid: storage along the row, join along
    the column (approached from its south end)."""

    name = "pa"

    def __init__(self, network: SensorNetwork):
        super().__init__(network)
        if not isinstance(network.topology, GridTopology):
            raise PlanError("PerpendicularRegions requires a grid topology")
        self.grid: GridTopology = network.topology

    def storage_paths(self, origin: int) -> List[List[int]]:
        x, y = self.grid.coords(origin)
        west = [self.grid.node_at(i, y) for i in range(x - 1, -1, -1)]
        east = [self.grid.node_at(i, y) for i in range(x + 1, self.grid.m)]
        return [p for p in (west, east) if p]

    def join_path(self, origin: int) -> List[int]:
        x, _y = self.grid.coords(origin)
        return self.grid.column(x)

    def join_alternates(self, member: int) -> Sequence[int]:
        # A member's row-mates hold exactly its replicas (the row IS
        # the storage region); nearest-first keeps the detour short.
        x, y = self.grid.coords(member)
        mates = [self.grid.node_at(i, y) for i in range(self.grid.m) if i != x]
        mates.sort(key=lambda n: (abs(self.grid.coords(n)[0] - x), n))
        return mates

    def storage_hops_bound(self) -> int:
        return self.grid.m

    def join_hops_bound(self) -> int:
        # Unicast to the south end plus the full column traversal.
        return 2 * self.grid.n


class VirtualGridRegions(RegionStrategy):
    """GPA on arbitrary topologies via rank-based virtual rows/columns.

    Nodes are sorted by y and split into round(√n) chunks of (almost)
    equal size; each row is ordered by x.  Column *i* consists of the
    i-th node of every row (modulo the row's length), so every row
    intersects every column.  Paths between consecutive members are
    routed multi-hop.
    """

    name = "virtual-grid"

    def __init__(
        self,
        network: SensorNetwork,
        leg_bound: Optional[int] = None,
    ):
        super().__init__(network)
        #: Optional analytic per-leg routing bound.  The default bound
        #: is the exact network diameter, which costs an iFUB sweep —
        #: 4.2 s at 100k nodes (r = 2.2) and 0.30–0.34 s at 20k
        #: (r = 1.8) on a 2-core x86 VM, paid once per shard worker.  A
        #: caller that knows a safe bound (e.g. ~4·side/r for a dense
        #: random unit-disk deployment) can pass it here; looser bounds
        #: only stretch the idle gaps between phases, which both the
        #: event heap and the sharded window coordinator skip for free.
        self._leg_bound = leg_bound
        ids = network.topology.node_ids
        n = len(ids)
        self.n_rows = max(1, round(math.sqrt(n)))
        by_y = sorted(ids, key=lambda i: (network.topology.position(i)[1], i))
        base, extra = divmod(n, self.n_rows)
        self.rows: List[List[int]] = []
        cursor = 0
        for r in range(self.n_rows):
            size = base + (1 if r < extra else 0)
            chunk = by_y[cursor:cursor + size]
            chunk.sort(key=lambda i: (network.topology.position(i)[0], i))
            self.rows.append(chunk)
            cursor += size
        self.row_of: Dict[int, int] = {}
        self.index_in_row: Dict[int, int] = {}
        for r, row in enumerate(self.rows):
            for idx, node in enumerate(row):
                self.row_of[node] = r
                self.index_in_row[node] = idx

    def storage_paths(self, origin: int) -> List[List[int]]:
        row = self.rows[self.row_of[origin]]
        idx = self.index_in_row[origin]
        west = list(reversed(row[:idx]))
        east = row[idx + 1:]
        return [p for p in (west, east) if p]

    def join_path(self, origin: int) -> List[int]:
        i = self.index_in_row[origin]
        return [row[min(i, len(row) - 1)] for row in self.rows]

    def join_alternates(self, member: int) -> Sequence[int]:
        # Virtual rows are the storage regions; any row-mate holds the
        # member's replicas.  Nearest-by-rank first.
        row = self.rows[self.row_of[member]]
        idx = self.index_in_row[member]
        mates = [n for n in row if n != member]
        mates.sort(key=lambda n: (abs(self.index_in_row[n] - idx), n))
        return mates

    def storage_hops_bound(self) -> int:
        longest = max(len(row) for row in self.rows)
        return longest * self._max_leg()

    def join_hops_bound(self) -> int:
        return (self.n_rows + 1) * self._max_leg()

    def _max_leg(self) -> int:
        # Conservative per-leg routing bound: the network diameter
        # (or the caller's analytic bound when one was supplied).
        if self._leg_bound is not None:
            return self._leg_bound
        return self.network.topology.diameter


class BroadcastRegions(RegionStrategy):
    """Naive Broadcast: replicate everywhere, join locally."""

    name = "broadcast"

    def storage_paths(self, origin: int) -> List[List[int]]:
        # A DFS walk of the BFS tree reaches every node; modelled as one
        # long path (each consecutive pair is a tree edge, 1 hop apart).
        order = _dfs_walk(self.network, origin)
        return [order[1:]] if len(order) > 1 else []

    def join_path(self, origin: int) -> List[int]:
        return [origin]

    def storage_hops_bound(self) -> int:
        return 2 * len(self.network)

    def join_hops_bound(self) -> int:
        return 1


class LocalStorageRegions(RegionStrategy):
    """Local Storage: keep tuples at home, sweep the network to join."""

    name = "local-storage"

    def storage_paths(self, origin: int) -> List[List[int]]:
        return []

    def join_path(self, origin: int) -> List[int]:
        return _dfs_walk(self.network, origin)

    def storage_hops_bound(self) -> int:
        return 1

    def join_hops_bound(self) -> int:
        return 2 * len(self.network)


class CentralizedRegions(RegionStrategy):
    """Ship everything to a server node; join there (Section III-A's
    'naive way')."""

    name = "centralized"

    def __init__(self, network: SensorNetwork, server: Optional[int] = None):
        super().__init__(network)
        self.server = network.topology.node_ids[0] if server is None else server

    def storage_paths(self, origin: int) -> List[List[int]]:
        if origin == self.server:
            return []
        return [[self.server]]

    def join_path(self, origin: int) -> List[int]:
        return [self.server]

    def storage_hops_bound(self) -> int:
        return self.network.topology.diameter

    def join_hops_bound(self) -> int:
        return self.network.topology.diameter


class CentroidRegions(CentralizedRegions):
    """The Centroid Approach: the server sits at the topological center
    (minimizing transport cost), the scheme PA is compared against."""

    name = "centroid"

    def __init__(self, network: SensorNetwork):
        center = _topological_center(network)
        super().__init__(network, server=center)


class SpatialClip(RegionStrategy):
    """Wrap a strategy, clipping both regions to ``radius`` (Euclidean)
    around the generating node — the spatial-constraint optimization of
    Section III-A: when the join predicate admits only nearby matches,
    storing and traversing the full lines is wasted."""

    def __init__(self, inner: RegionStrategy, radius: float):
        super().__init__(inner.network)
        self.inner = inner
        self.radius = radius
        self.name = f"{inner.name}+clip({radius})"
        # origin -> frozenset of nodes inside its clip disk, computed
        # through the topology's grid index (one O(area) query instead
        # of a distance test per region member per publish).
        self._disk_cache: Dict[int, frozenset] = {}

    def _disk(self, origin: int) -> frozenset:
        disk = self._disk_cache.get(origin)
        if disk is None:
            topo = self.network.topology
            disk = frozenset(
                topo.within_radius(topo.position(origin), self.radius)
            )
            self._disk_cache[origin] = disk
        return disk

    def _within(self, origin: int, node: int) -> bool:
        return node in self._disk(origin)

    def storage_paths(self, origin: int) -> List[List[int]]:
        out = []
        for path in self.inner.storage_paths(origin):
            clipped = []
            for node in path:
                if not self._within(origin, node):
                    break  # paths extend outward; stop at the boundary
                clipped.append(node)
            if clipped:
                out.append(clipped)
        return out

    def join_path(self, origin: int) -> List[int]:
        return [
            node for node in self.inner.join_path(origin)
            if self._within(origin, node)
        ] or [origin]

    def join_alternates(self, member: int) -> Sequence[int]:
        return self.inner.join_alternates(member)

    def storage_hops_bound(self) -> int:
        return self.inner.storage_hops_bound()

    def join_hops_bound(self) -> int:
        return self.inner.join_hops_bound()


def _dfs_walk(network: SensorNetwork, origin: int) -> List[int]:
    """A DFS preorder walk over a BFS tree from origin, children in
    discovery order; consecutive nodes may be hops apart (routed)."""
    parents = bfs_levels(network.topology.adjacency, origin)[1]
    children: Dict[int, List[int]] = {node: [] for node in parents}
    for node, parent in list(parents.items())[1:]:  # the origin first
        children[parent].append(node)
    walk, stack = [], [origin]
    while stack:
        walk.append(stack.pop())
        stack.extend(reversed(children[walk[-1]]))
    return walk


def _topological_center(network: SensorNetwork) -> int:
    """The node minimizing total hop distance to all others (computed
    over positions for speed: nearest node to the centroid)."""
    xs = [p[0] for p in network.topology.positions.values()]
    ys = [p[1] for p in network.topology.positions.values()]
    centroid = (sum(xs) / len(xs), sum(ys) / len(ys))
    return network.topology.nearest_node(centroid)


STRATEGIES = {
    "pa": PerpendicularRegions,
    "virtual-grid": VirtualGridRegions,
    "broadcast": BroadcastRegions,
    "local-storage": LocalStorageRegions,
    "centralized": CentralizedRegions,
    "centroid": CentroidRegions,
}


def make_strategy(name: str, network: SensorNetwork, **kwargs) -> RegionStrategy:
    """Build a region strategy by name ('pa' falls back to the virtual
    grid on non-grid topologies)."""
    if name == "pa" and not isinstance(network.topology, GridTopology):
        return VirtualGridRegions(network, **kwargs)
    cls = STRATEGIES.get(name)
    if cls is None:
        raise PlanError(f"unknown strategy {name!r} (have {sorted(STRATEGIES)})")
    return cls(network, **kwargs)
