"""Uniform-grid spatial index over node positions.

The network layer's geometric primitives — unit-disk edge
construction, nearest-node lookup (geographic hashing stores every
derived tuple at the node nearest a hashed position), and
radius-membership tests (spatially clipped regions) — were all linear
or quadratic scans over the node set.  A uniform grid with cell size
on the order of the radio range makes each of them O(1) expected for
deployments with bounded node density (exactly the deployments the
paper's scaling arguments assume):

* ``disk_pairs(positions, r)`` pairs each node only with the 3x3
  neighborhood of radius-sized cells around it, all nodes at once in
  numpy, so building a unit-disk graph is O(n) expected instead of the
  all-pairs O(n^2);
* ``nearest(point)`` searches outward ring by ring and stops as soon
  as no unvisited cell can beat the best candidate;
* ``within(point, r)`` enumerates only the cells overlapping the
  query disk.

All three produce *bit-identical* answers to the brute-force scans
they replace (same ``math.hypot`` calls, same ``<=`` comparisons,
same lowest-id tie-breaks; ``disk_pairs`` calls ``math.hypot`` only
where a squared distance is too close to call) —
``tests/net/test_spatial.py`` asserts this property differentially, and
``benchmarks/bench_e19_scale.py`` gates on it.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from typing import Dict, Iterator, List, Tuple

import numpy as np

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
        """Every node in a cell the query disk's bounding box overlaps,
        the box a hair (1e-9 of ``radius``, as :func:`disk_pairs` has)
        wider so a node whose distance rounds down to ``radius`` is
        never a cell past it.  No distance filtering: callers apply
        their own, so comparisons stay those of the scans."""
        reach = radius * (1 + 1e-9)
        x0, y0 = self.cell_of((point[0] - reach, point[1] - reach))
        x1, y1 = self.cell_of((point[0] + reach, point[1] + reach))
        cells = self._cells
        for cx in range(x0, x1 + 1):
            for cy in range(y0, y1 + 1):
                bucket = cells.get((cx, cy))
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


def disk_pairs(positions: Dict[int, Position], radius: float
               ) -> Tuple[List[int], np.ndarray, np.ndarray]:
    """The unit-disk edge set — every pair at distance <= ``radius``,
    bit-identical to the all-pairs scan — as numpy pairs: the sorted
    ids, and for every edge its two ends' positions in them, ``first <
    second``, sorted by ``(first, second)``.

    The candidates are every pair in the same or adjacent cells of
    side a hair over ``radius``, drawn at once per cell offset from
    a CSR of the occupied cells (nodes sorted by cell, one slice per
    cell).  The hair (1e-9 of the radius) keeps a pair the scan
    links in adjacent cells even where its distance rounds down to
    ``radius`` or a floor division rounds up.  A candidate whose
    squared distance lies clear of ``radius**2`` (outside a 1e-9
    relative band) is decided by that square alone; the few inside
    the band are decided by the scan's own
    ``math.hypot(...) <= radius``."""
    ids = sorted(positions)
    n = len(ids)
    if radius < 0 or n < 2:
        none = np.zeros(0, dtype=np.int64)
        return ids, none, none
    # radius 0 links coincident points only, always in one cell.
    width, reach = (radius * (1 + 1e-9), 1) if radius > 0 else (1.0, 0)
    xy = np.array([positions[i] for i in ids], dtype=np.float64)
    cxy = np.floor_divide(xy, width).astype(np.int64)
    cxy -= cxy.min(axis=0) - reach  # every offset cell stays >= 0
    height = int(cxy[:, 1].max()) + reach + 1
    key = cxy[:, 0] * height + cxy[:, 1]
    by_cell = np.argsort(key, kind="stable")
    cells, starts, sizes = np.unique(
        key[by_cell], return_index=True, return_counts=True
    )
    nodes = np.arange(n)
    bound = radius * radius
    band = bound * 1e-9 + 1e-300  # the floor keeps a tiny radius exact
    pairs = []
    # Half the offsets: each unordered pair of cells is met once.
    for dx in range(reach + 1):
        for dy in range(-reach if dx else 0, reach + 1):
            target = key + (dx * height + dy)
            slot = np.minimum(np.searchsorted(cells, target), len(cells) - 1)
            count = np.where(cells[slot] == target, sizes[slot], 0)
            ends = np.cumsum(count)
            # Candidate k of node i is by_cell[starts[slot[i]] + k].
            at = np.arange(ends[-1]) - np.repeat(ends - count - starts[slot], count)
            first, second = np.repeat(nodes, count), by_cell[at]
            if dx == 0 and dy == 0:
                keep = second > first
                first, second = first[keep], second[keep]
            gap = xy[first] - xy[second]
            squared = gap[:, 0] * gap[:, 0] + gap[:, 1] * gap[:, 1]
            inside = squared < bound - band
            near = np.flatnonzero(~inside & ~(squared > bound + band))
            for k in near.tolist():
                p, q = positions[ids[first[k]]], positions[ids[second[k]]]
                inside[k] = math.hypot(p[0] - q[0], p[1] - q[1]) <= radius
            a, b = first[inside], second[inside]
            pairs.append(np.minimum(a, b) * n + np.maximum(a, b))
    first, second = np.divmod(np.sort(np.concatenate(pairs)), n)
    return ids, first, second


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
