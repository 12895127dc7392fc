"""Network topologies.

The paper describes PA on 2-D grid networks (unit transmission radius,
node at every integer coordinate) and generalizes to arbitrary
topologies; we provide grids, random geometric (unit-disk) graphs, and
arbitrary user graphs.  All expose positions — geographic hashing and
the region constructions need them.

A topology *is* its adjacency: one neighbor tuple per node, each node
id the topology's own ``int`` object, and ``Topology(adjacency,
positions)`` its one constructor.  Grids and random deployments fill it
straight from their edge sequence, in the order networkx would give
``graph.adj``, and every routing search, diameter sweep, tree and
partition walks it in that order.  Tests that want networkx's
algorithms as oracles build their graph from it.

Geometric queries (``nearest_node``, ``within_radius``) and unit-disk
edges go through a uniform-grid spatial index (:mod:`repro.net.spatial`),
bit-identical to the scans.  Topologies are immutable, so the sorted
neighbor tuples, node ids, exact diameter and spatial index are built
once (a random deployment keeps the index it drew its edges with).
"""

from __future__ import annotations

import math
import random
from functools import cached_property
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.errors import NetworkError
from .spatial import GridIndex, disk_pairs, heuristic_cell

Position = Tuple[float, float]
Adjacency = Dict[int, Tuple[int, ...]]


class Topology:
    """Connectivity + positions for a set of integer-identified nodes."""

    _connected_by_construction = False  # else one search checks it

    def __init__(self, adjacency: Adjacency, positions: Dict[int, Position]):
        if set(adjacency) != set(positions):
            raise NetworkError("graph nodes and positions disagree")
        if not adjacency:
            raise NetworkError("empty topology")
        if not (self._connected_by_construction or
                len(bfs_levels(adjacency, next(iter(adjacency)))[1]) == len(adjacency)):
            raise NetworkError("topology must be connected")
        #: Every node's neighbors in networkx's ``graph.adj`` order (not
        #: sorted, as :meth:`neighbors`): searches over it discover nodes
        #: as networkx's do, so of equally short routes they pick its.
        self.adjacency = adjacency
        self.positions = dict(positions)
        self._neighbor_cache: Dict[int, Tuple[int, ...]] = {}
        self._bbox: Optional[Tuple[float, float, float, float]] = None
        self._spatial: Optional[GridIndex] = None

    @cached_property
    def node_ids(self) -> List[int]:
        return sorted(self.adjacency)

    @cached_property
    def node_id_set(self) -> frozenset:
        """Node ids as a set (O(1) membership — the sharded network
        distinguishes "remote node" from "no such node" on every
        stub lookup)."""
        return frozenset(self.adjacency)

    def __len__(self) -> int:
        return len(self.adjacency)

    def neighbors(self, node_id: int) -> Sequence[int]:
        """Sorted neighbor ids, memoized per node (topologies never
        change after construction, and this sits inside every
        transmit/flood hot loop)."""
        cached = self._neighbor_cache.get(node_id)
        if cached is None:
            cached = tuple(sorted(self.adjacency[node_id]))
            self._neighbor_cache[node_id] = cached
        return cached

    def position(self, node_id: int) -> Position:
        return self.positions[node_id]

    def are_neighbors(self, a: int, b: int) -> bool:
        return b in self.adjacency.get(a, ())

    @cached_property
    def diameter(self) -> int:
        return self._compute_diameter()

    def _compute_diameter(self) -> int:
        """Exact graph diameter via the iFUB scheme (two-sweep lower
        bound, then eccentricities of BFS levels from the top down with
        the 2*i cut).  Equals ``nx.diameter`` everywhere but runs a
        handful of BFS traversals instead of n of them on the sparse,
        long-diameter graphs sensor deployments produce; the level
        loop takes its eccentricities 64 sources at a time
        (:func:`_eccentricity`)."""
        adjacency = self.adjacency
        if len(adjacency) == 1:
            return 0
        # Double sweep: max-degree start -> farthest node a -> farthest
        # node b.  ecc(a) is the classic lower bound and the a->b path
        # is (near-)diametral.
        s = max(adjacency, key=lambda n: (len(adjacency[n]), -n))
        a = min(bfs_levels(adjacency, s)[0][-1])
        levels_a, parents = bfs_levels(adjacency, a)
        b = min(levels_a[-1])
        lb = len(levels_a) - 1
        # Decompose levels from the *midpoint* of the a->b path: its
        # eccentricity is ~lb/2, so the 2*(i-1) cut usually closes after
        # touching only the outermost (sparse) levels.
        u = b
        for _ in range(lb - lb // 2):
            u = parents[u]
        levels = bfs_levels(adjacency, u)[0]
        lb = max(lb, len(levels) - 1)
        # iFUB: after processing every level > i, any remaining pair
        # lies within distance 2*i of each other via u, so stop as soon
        # as lb >= 2*i.  The outer levels' eccentricities come 64 at a
        # time, and the cut is checked before each batch: every level
        # above the first node not yet swept is done.
        outer = [(i, node) for i in range(len(levels) - 1, 0, -1)
                 for node in levels[i]]
        csr = None
        for start in range(0, len(outer), _BATCH):
            if lb >= 2 * outer[start][0]:
                break
            if csr is None:
                csr = _csr(adjacency)
            batch = [node for _i, node in outer[start:start + _BATCH]]
            lb = max(lb, _eccentricity(csr, batch))
        return lb

    @property
    def spatial(self) -> GridIndex:
        """The uniform-grid index over node positions (lazily built;
        cell size = the radio range when the topology knows one, else
        ~1 node per cell)."""
        if self._spatial is None:
            self._spatial = GridIndex(self.positions, self._spatial_cell())
        return self._spatial

    def _spatial_cell(self) -> float:
        return heuristic_cell(self.positions)

    def bounding_box(self) -> Tuple[float, float, float, float]:
        if self._bbox is None:
            xs = [p[0] for p in self.positions.values()]
            ys = [p[1] for p in self.positions.values()]
            self._bbox = (min(xs), min(ys), max(xs), max(ys))
        return self._bbox

    def nearest_node(self, point: Position) -> int:
        """Node closest to a geographic point (ties: lowest id)."""
        return self.spatial.nearest(point)

    def nearest_nodes(self, point: Position, k: int) -> List[int]:
        """The ``k`` nodes closest to ``point``, by (distance, id) —
        GHT replica sets hash a key here."""
        return self.spatial.nearest_k(point, k)

    def within_radius(self, point: Position, radius: float) -> List[int]:
        """Node ids within Euclidean ``radius`` of ``point`` (ascending)."""
        return self.spatial.within(point, radius)

    def euclidean(self, a: int, b: int) -> float:
        return _dist(self.positions[a], self.positions[b])


def bfs_levels(
    adjacency: Dict[int, Tuple[int, ...]], source: int
) -> Tuple[List[List[int]], Dict[int, int]]:
    """Breadth-first search from ``source``, level by level: the levels
    (level i = the nodes at distance i, in discovery order) and each
    node's discovering parent (the source is its own)."""
    parents = {source: source}
    levels = []
    level = [source]
    while level:
        levels.append(level)
        following = []
        for node in level:
            for nbr in adjacency[node]:
                if nbr not in parents:
                    parents[nbr] = node
                    following.append(nbr)
        level = following
    return levels, parents


def _adjacency(nodes: Iterable[int], edges: Iterable[Tuple[int, int]]) -> Adjacency:
    """``{node: neighbors}`` filled from ``edges`` (distinct, no
    self-loops) in sequence: the rows networkx's ``graph.adj`` holds
    after ``add_nodes_from(nodes)`` and ``add_edges_from(edges)``."""
    rows: Dict[int, List[int]] = {node: [] for node in nodes}
    for a, b in edges:
        rows[a].append(b)
        rows[b].append(a)
    return {node: tuple(nbrs) for node, nbrs in rows.items()}


def _spans(n: int, first: np.ndarray, second: np.ndarray) -> bool:
    """Whether the edges ``(first[k], second[k])`` connect all of nodes
    0..n-1, decided on the arrays: each round hooks the larger root of
    every edge's two components under the smaller one and then points
    every node straight at its root, so each round at least halves the
    components still touching an edge."""
    if n < 2:
        return True
    if len(first) < n - 1:
        return False
    root = np.arange(n)
    while True:
        a, b = root[first], root[second]
        apart = a != b
        if not apart.any():
            return bool((root == 0).all())
        a, b = a[apart], b[apart]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = root[root]
            if (up == root).all():
                break
            root = up


def _giant_component(
    adjacency: Adjacency, positions: Dict[int, Position]
) -> Tuple[Adjacency, Dict[int, Position]]:
    """The largest connected component of a graph over ids 0..n-1 (the
    first of that size by lowest id), relabeled 0..k-1 in id order, as
    networkx's ``relabel_nodes(subgraph(component).copy(), ...)`` held
    it: nodes in the subgraph's order (id order, or under half the
    nodes, a set's rebuilt from the component set), each row first its
    neighbors earlier in that order, then the later ones in row order,
    and positions in the component set's order."""
    best: Dict[int, int] = {}
    seen: Set[int] = set()
    for node in adjacency:
        if node not in seen:
            found = bfs_levels(adjacency, node)[1]
            seen.update(found)
            best = found if len(found) > len(best) else best
    # Sets grown one node at a time, in discovery order, as networkx's.
    members = set(iter(best))
    label = {node: k for k, node in enumerate(sorted(members))}
    order = list(label) if 2 * len(members) >= len(adjacency) else list(set(iter(members)))
    place = {node: k for k, node in enumerate(order)}
    rows = {}
    for node in order:
        nbrs, here = adjacency[node], place[node]
        earlier = sorted((v for v in nbrs if place[v] < here), key=place.__getitem__)
        later = [v for v in nbrs if place[v] > here]
        rows[label[node]] = tuple(label[v] for v in earlier + later)
    return rows, {label[node]: positions[node] for node in members}


#: Sources per bit-parallel sweep: one bit of a uint64 each.
_BATCH = 64


def _csr(adjacency: Adjacency) -> Tuple[Dict[int, int], np.ndarray, np.ndarray]:
    """``adjacency`` in compressed sparse rows over positions
    0..n-1 (adjacency order): the position of each node, the row
    offsets and the neighbors' positions."""
    index = {node: k for k, node in enumerate(adjacency)}
    indptr = np.zeros(len(adjacency) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, adjacency.values()), np.int64, len(adjacency)),
              out=indptr[1:])
    indices = np.fromiter(
        map(index.__getitem__, chain.from_iterable(adjacency.values())),
        np.int64, int(indptr[-1]),
    )
    return index, indptr, indices


def _eccentricity(csr: Tuple[Dict[int, int], np.ndarray, np.ndarray],
                  sources: Sequence[int]) -> int:
    """The largest eccentricity among up to 64 ``sources`` of a
    connected graph of two or more nodes, by one breadth-first search
    per bit: node k's uint64 holds bit b once source b has reached it,
    and a step ORs every node's neighbors' frontier bits together (one
    ``reduceat`` over the CSR rows, none of them empty).  The searches
    run in lockstep, so the last step that reaches a new node is the
    deepest of them."""
    index, indptr, indices = csr
    seen = np.zeros(len(indptr) - 1, dtype=np.uint64)
    seen[[index[node] for node in sources]] = np.left_shift(
        np.uint64(1), np.arange(len(sources), dtype=np.uint64)
    )
    frontier = seen
    depth = -1
    while frontier.any():
        depth += 1
        frontier = np.bitwise_or.reduceat(frontier[indices], indptr[:-1]) & ~seen
        seen |= frontier
    return depth


def _dist(p: Position, q: Position) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


class GridTopology(Topology):
    """An m x n unit grid: node at (x, y) for 0 <= x < m, 0 <= y < n,
    unit transmission radius (so 4-neighborhood).

    Node ids are ``y * m + x``; helpers expose the horizontal/vertical
    lines PA replicates and traverses.
    """

    _connected_by_construction = True

    def __init__(self, m: int, n: Optional[int] = None):
        if m < 1:
            raise NetworkError("grid needs at least one column")
        n = m if n is None else n
        self.m, self.n = m, n
        ids = list(range(m * n))  # one object per id, neighbors included
        edges = []
        for node in ids:
            if node % m:
                edges.append((node, ids[node - 1]))
            if node >= m:
                edges.append((node, ids[node - m]))
        positions = {node: (float(node % m), float(node // m)) for node in ids}
        super().__init__(_adjacency(ids, edges), positions)

    def _spatial_cell(self) -> float:
        return 1.0  # unit transmission radius

    def _compute_diameter(self) -> int:
        # Manhattan corner-to-corner; no BFS needed on a 4-neighbor grid.
        return (self.m - 1) + (self.n - 1)

    def node_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.m and 0 <= y < self.n):
            raise NetworkError(f"({x}, {y}) outside {self.m}x{self.n} grid")
        return y * self.m + x

    def coords(self, node_id: int) -> Tuple[int, int]:
        return node_id % self.m, node_id // self.m

    def row(self, y: int) -> List[int]:
        """The y-th horizontal line, west to east (PA's storage region)."""
        return [self.node_at(x, y) for x in range(self.m)]

    def column(self, x: int) -> List[int]:
        """The x-th vertical line, south to north (PA's join region)."""
        return [self.node_at(x, y) for y in range(self.n)]

    def __repr__(self) -> str:
        return f"GridTopology({self.m}x{self.n})"


def unit_disk_edges_brute(
    positions: Dict[int, Position], radius: float
) -> List[Tuple[int, int]]:
    """The all-pairs O(n^2) unit-disk edge set — kept as the
    differential oracle for the grid-index construction (tests and
    bench_e19 compare against it)."""
    ids = sorted(positions)
    return [(i, j) for k, i in enumerate(ids) for j in ids[k + 1:]
            if _dist(positions[i], positions[j]) <= radius]


#: Deployments a :class:`RandomGeometricTopology` draws before it
#: settles for the last draw's giant component.
MAX_TRIES = 25


class RandomGeometricTopology(Topology):
    """Unit-disk graph over uniformly random points in a square.

    Retries deployments until the graph is connected (or takes the
    giant component of the last attempt after ``MAX_TRIES``),
    mimicking a realistic random sensor deployment.

    Determinism: attempt 0 draws its points from ``Random(seed)``
    (bit-identical to the seed implementation's first attempt); every
    retry ``k`` draws from ``Random(f"{seed}:{k}")``, so any attempt is
    reproducible in isolation — parallel benchmark workers rebuild the
    same topology without replaying the attempts before it.

    ``edge_method`` selects the edge construction: ``"grid"`` (the
    O(n)-expected spatial index, default) or ``"brute"`` (the
    all-pairs oracle).  Both produce the same edge set; the knob
    exists so tests and bench_e19 can measure one against the other.
    """

    def __init__(
        self,
        n: int,
        radius: float,
        side: float = 10.0,
        seed: int = 0,
        edge_method: str = "grid",
    ):
        if edge_method not in ("grid", "brute"):
            raise NetworkError(f"unknown edge_method {edge_method!r}")
        self.side, self.radius = side, radius
        for attempt in range(MAX_TRIES):
            rng = random.Random(seed) if attempt == 0 else random.Random(f"{seed}:{attempt}")
            pts = {i: (rng.uniform(0, side), rng.uniform(0, side)) for i in range(n)}
            if edge_method == "grid":
                ids, first, second = disk_pairs(pts, radius)
            else:
                # The ids are 0..n-1: an edge's ends are their positions.
                ids = sorted(pts)
                first, second = np.array(unit_disk_edges_brute(pts, radius),
                                         dtype=np.int64).reshape(-1, 2).T
            connected = _spans(len(ids), first, second)
            if connected:
                break  # else draw again: a rejected draw builds no edge list
        get = ids.__getitem__
        # Built as a list first: the rows' tuples then land together in
        # memory, which the routing searches over them read ~4 % faster
        # (round_sparse) than rows filled from a lazy zip.
        edges = list(zip(map(get, first.tolist()), map(get, second.tolist())))
        adjacency = _adjacency(pts, edges)
        if not connected:
            # No attempt connected: take the giant component of the
            # *last* attempt, relabeled contiguously.
            super().__init__(*_giant_component(adjacency, pts))
            return
        self._connected_by_construction = True  # _spans decided it
        super().__init__(adjacency, pts)
        if edge_method == "grid":
            # The index spatial would build, paid with the construction
            # rather than by the first query.
            self._spatial = GridIndex(self.positions, cell=radius)

    def _spatial_cell(self) -> float:
        return self.radius  # one cell per radio range

    def __repr__(self) -> str:
        return f"RandomGeometricTopology(n={len(self)}, r={self.radius})"


def topology_from_edges(
    edges: Iterable[Tuple[int, int]],
    positions: Optional[Dict[int, Position]] = None,
) -> Topology:
    """Arbitrary topology from an edge list, nodes and rows in the order
    the edges name them (a repeated edge counts once); with no positions
    given the nodes sit on a circle of radius 10 in that order."""
    rows: Dict[int, Dict[int, None]] = {}
    for a, b in edges:
        rows.setdefault(a, {})[b] = None
        rows.setdefault(b, {})[a] = None
    if positions is None:
        step = 2 * math.pi / max(len(rows), 1)
        positions = {node: (10 * math.cos(k * step), 10 * math.sin(k * step))
                     for k, node in enumerate(rows)}
    return Topology({node: tuple(nbrs) for node, nbrs in rows.items()}, positions)
