"""Uniform-grid spatial index over node positions.

The network layer's geometric primitives — unit-disk edge
construction, nearest-node lookup (geographic hashing stores every
derived tuple at the node nearest a hashed position), and
radius-membership tests (spatially clipped regions) — were all linear
or quadratic scans over the node set.  A uniform grid with cell size
on the order of the radio range makes each of them O(1) expected for
deployments with bounded node density (exactly the deployments the
paper's scaling arguments assume):

* ``disk_edges(r)`` visits only the 3x3 cell neighborhood of each
  node, so building a unit-disk graph is O(n) expected instead of the
  all-pairs O(n^2);
* ``nearest(point)`` searches outward ring by ring and stops as soon
  as no unvisited cell can beat the best candidate;
* ``within(point, r)`` enumerates only the cells overlapping the
  query disk.

All three produce *bit-identical* answers to the brute-force scans
they replace (same ``math.hypot`` calls, same ``<=`` comparisons,
same lowest-id tie-breaks) — ``tests/net/test_spatial.py`` asserts
this property differentially, and ``benchmarks/bench_e19_scale.py``
gates on it.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from typing import Dict, Iterator, List, Tuple

Position = Tuple[float, float]


class GridIndex:
    """Buckets node positions into square cells of side ``cell``.

    The index is immutable after construction, like the topologies it
    serves.  Cell coordinates are ``floor(coordinate / cell)``; a
    query disk of radius ``r`` overlaps at most
    ``(ceil(r / cell) * 2 + 1)^2`` cells.
    """

    def __init__(self, positions: Dict[int, Position], cell: float):
        if cell <= 0:
            raise ValueError(f"cell size {cell} must be positive")
        self.cell = cell
        self.positions = positions
        self._cells: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        for node_id in sorted(positions):
            x, y = positions[node_id]
            self._cells[(int(x // cell), int(y // cell))].append(node_id)
        # Bounding box of the occupied cells, for _max_ring.
        xs = [cx for cx, _cy in self._cells] or [0]
        ys = [cy for _cx, cy in self._cells] or [0]
        self._box = (min(xs), max(xs), min(ys), max(ys))

    def __len__(self) -> int:
        return len(self.positions)

    def cell_of(self, point: Position) -> Tuple[int, int]:
        return (int(point[0] // self.cell), int(point[1] // self.cell))

    def cell_items(self) -> List[Tuple[Tuple[int, int], List[int]]]:
        """Every occupied cell with its (ascending) node ids, sorted by
        cell coordinate — the deterministic spatial shard key: the
        sharded engine groups whole cells into shards, so two nodes in
        one cell always land in the same worker."""
        return sorted((c, list(b)) for c, b in self._cells.items())

    def _ring(self, cx: int, cy: int, k: int) -> Iterator[List[int]]:
        """Occupied buckets at Chebyshev cell-distance exactly ``k``."""
        cells = self._cells
        if k == 0:
            bucket = cells.get((cx, cy))
            if bucket:
                yield bucket
            return
        for dx in range(-k, k + 1):
            for dy in (-k, k) if abs(dx) != k else range(-k, k + 1):
                bucket = cells.get((cx + dx, cy + dy))
                if bucket:
                    yield bucket

    # -- queries ----------------------------------------------------------

    def candidates_near(self, point: Position, radius: float) -> Iterator[int]:
        """Every node that *could* lie within ``radius`` of ``point``
        (no distance filtering — callers apply their own predicate so
        float comparisons stay identical to the scans they replace)."""
        cx, cy = self.cell_of(point)
        reach = int(math.ceil(radius / self.cell))
        cells = self._cells
        for dx in range(-reach, reach + 1):
            for dy in range(-reach, reach + 1):
                bucket = cells.get((cx + dx, cy + dy))
                if bucket:
                    yield from bucket

    def within(self, point: Position, radius: float) -> List[int]:
        """Node ids with Euclidean distance <= ``radius`` of ``point``,
        ascending."""
        px, py = point
        positions = self.positions
        out = [
            n for n in self.candidates_near(point, radius)
            if math.hypot(positions[n][0] - px, positions[n][1] - py) <= radius
        ]
        out.sort()
        return out

    def nearest(self, point: Position) -> int:
        """The node closest to ``point`` (ties: lowest id) — identical
        to ``min(ids, key=lambda n: (dist(n, point), n))``.

        Expanding-ring search: after a candidate at distance ``d`` is
        found, rings keep expanding while some cell in the ring could
        still hold a node at distance <= ``d`` (a cell at Chebyshev
        ring ``k`` is at least ``(k - 1) * cell`` away), so distance
        ties in farther rings are still visited and the global
        lowest-id tie-break is preserved.
        """
        if not self.positions:
            raise ValueError("empty index")
        px, py = point
        cx, cy = self.cell_of(point)
        positions = self.positions
        best: Tuple[float, int] = (math.inf, -1)
        k = 0
        max_k = self._max_ring(cx, cy)
        while k <= max_k:
            if best[1] >= 0 and (k - 1) * self.cell > best[0]:
                break
            for bucket in self._ring(cx, cy, k):
                for n in bucket:
                    q = positions[n]
                    cand = (math.hypot(q[0] - px, q[1] - py), n)
                    if cand < best:
                        best = cand
            k += 1
        return best[1]

    def nearest_k(self, point: Position, k: int) -> List[int]:
        """The ``k`` nodes closest to ``point``, ordered by
        ``(distance, id)`` — identical to
        ``sorted(ids, key=lambda n: (dist(n, point), n))[:k]``.

        Same expanding-ring scheme as :meth:`nearest`, except rings
        keep expanding until no unvisited cell can beat the *k-th best*
        candidate.  GHT replica sets (E20) are exactly this query:
        a key's k-nearest nodes, deterministic across processes.
        """
        if k < 1:
            raise ValueError(f"k {k} must be >= 1")
        if not self.positions:
            raise ValueError("empty index")
        px, py = point
        cx, cy = self.cell_of(point)
        positions = self.positions
        best: List[Tuple[float, int]] = []
        ring = 0
        max_ring = self._max_ring(cx, cy)
        while ring <= max_ring:
            if len(best) == k and (ring - 1) * self.cell > best[-1][0]:
                break
            for bucket in self._ring(cx, cy, ring):
                for n in bucket:
                    q = positions[n]
                    cand = (math.hypot(q[0] - px, q[1] - py), n)
                    if len(best) < k:
                        bisect.insort(best, cand)
                    elif cand < best[-1]:
                        bisect.insort(best, cand)
                        best.pop()
            ring += 1
        return [n for _, n in best]

    def _max_ring(self, cx: int, cy: int) -> int:
        """Chebyshev distance from (cx, cy) to the farthest corner of
        the occupied cells' bounding box — no occupied cell lies past
        it, so ring expansion can always stop there."""
        x0, x1, y0, y1 = self._box
        return max(cx - x0, x1 - cx, cy - y0, y1 - cy)

    def disk_edges(self, radius: float) -> List[Tuple[int, int]]:
        """All pairs ``(i, j)`` with ``i < j`` and distance <= ``radius``,
        sorted — the unit-disk edge set, bit-identical to the all-pairs
        scan (same hypot, same ``<=``)."""
        edges: List[Tuple[int, int]] = []
        positions = self.positions
        cells = self._cells
        reach = int(math.ceil(radius / self.cell))
        for (cx, cy), bucket in self._cells.items():
            for i in bucket:
                pi = positions[i]
                for dx in range(-reach, reach + 1):
                    for dy in range(-reach, reach + 1):
                        other = cells.get((cx + dx, cy + dy))
                        if not other:
                            continue
                        for j in other:
                            if j <= i:
                                continue
                            qj = positions[j]
                            if math.hypot(pi[0] - qj[0], pi[1] - qj[1]) <= radius:
                                edges.append((i, j))
        edges.sort()
        return edges


def heuristic_cell(positions: Dict[int, Position]) -> float:
    """A cell size for point queries when no radio range is known:
    the bounding-box side divided by sqrt(n), i.e. ~1 node per cell
    for uniform deployments."""
    xs = [p[0] for p in positions.values()]
    ys = [p[1] for p in positions.values()]
    extent = max(max(xs) - min(xs), max(ys) - min(ys))
    if extent <= 0:
        return 1.0
    return extent / max(1.0, math.sqrt(len(positions)))
