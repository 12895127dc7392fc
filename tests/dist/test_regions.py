"""Tests for GPA region strategies — above all the GPA correctness
invariant: every storage region intersects every join region."""

import pytest

from repro.core.errors import PlanError
from repro.dist.regions import (
    BroadcastRegions,
    CentralizedRegions,
    CentroidRegions,
    LocalStorageRegions,
    PerpendicularRegions,
    SpatialClip,
    VirtualGridRegions,
    make_strategy,
)
from repro.net.network import GridNetwork, RandomNetwork


def storage_region(strategy, origin):
    nodes = {origin}
    for path in strategy.storage_paths(origin):
        nodes.update(path)
    return nodes


def join_region(strategy, origin):
    return set(strategy.join_path(origin))


def assert_gpa_invariant(strategy, node_ids):
    for a in node_ids:
        storage = storage_region(strategy, a)
        for b in node_ids:
            join = join_region(strategy, b)
            assert storage & join, (
                f"{strategy.name}: storage({a}) does not meet join({b})"
            )


class TestPerpendicular:
    def test_storage_is_row(self):
        net = GridNetwork(5)
        pa = PerpendicularRegions(net)
        origin = net.grid.node_at(2, 3)
        assert storage_region(pa, origin) == set(net.grid.row(3))

    def test_join_is_column(self):
        net = GridNetwork(5)
        pa = PerpendicularRegions(net)
        origin = net.grid.node_at(2, 3)
        assert join_region(pa, origin) == set(net.grid.column(2))

    def test_gpa_invariant(self):
        net = GridNetwork(4)
        assert_gpa_invariant(PerpendicularRegions(net), net.topology.node_ids)

    def test_requires_grid(self):
        net = RandomNetwork(15, radius=4.0)
        with pytest.raises(PlanError):
            PerpendicularRegions(net)

    def test_bounds_positive(self):
        pa = PerpendicularRegions(GridNetwork(6))
        assert pa.storage_hops_bound() >= 5
        assert pa.join_hops_bound() >= 6


class TestVirtualGrid:
    def test_gpa_invariant_on_random(self):
        net = RandomNetwork(24, radius=3.5, seed=4)
        vg = VirtualGridRegions(net)
        assert_gpa_invariant(vg, net.topology.node_ids)

    def test_gpa_invariant_on_grid(self):
        net = GridNetwork(4)
        assert_gpa_invariant(VirtualGridRegions(net), net.topology.node_ids)

    @pytest.mark.parametrize("n, rows", [(1, 1), (2, 1), (10, 3), (24, 5)])
    def test_rows_are_the_rounded_square_root(self, n, rows):
        # round(sqrt(n)) rows of sizes differing by at most one.
        net = RandomNetwork(n, radius=6.0, seed=4)
        vg = VirtualGridRegions(net)
        assert len(net.topology) == n
        assert vg.n_rows == len(vg.rows) == rows
        sizes = [len(row) for row in vg.rows]
        assert max(sizes) - min(sizes) <= 1 and sum(sizes) == n

    def test_rows_partition_nodes(self):
        net = RandomNetwork(20, radius=3.5, seed=4)
        vg = VirtualGridRegions(net)
        all_nodes = [n for row in vg.rows for n in row]
        assert sorted(all_nodes) == net.topology.node_ids


class TestDegenerateStrategies:
    def test_broadcast_covers_network(self):
        net = GridNetwork(4)
        bc = BroadcastRegions(net)
        assert storage_region(bc, 5) == set(net.topology.node_ids)
        assert join_region(bc, 5) == {5}
        assert_gpa_invariant(bc, [0, 5, 15])

    def test_local_storage_sweeps_network(self):
        net = GridNetwork(4)
        ls = LocalStorageRegions(net)
        assert storage_region(ls, 5) == {5}
        assert join_region(ls, 5) == set(net.topology.node_ids)
        assert_gpa_invariant(ls, [0, 5, 15])

    def test_centralized_meets_at_server(self):
        net = GridNetwork(4)
        c = CentralizedRegions(net, server=3)
        assert storage_region(c, 10) == {10, 3}
        assert join_region(c, 10) == {3}
        assert_gpa_invariant(c, net.topology.node_ids)

    def test_centroid_picks_center(self):
        net = GridNetwork(5)
        c = CentroidRegions(net)
        x, y = net.grid.coords(c.server)
        assert (x, y) == (2, 2)


class TestSpatialClip:
    def test_clips_storage(self):
        net = GridNetwork(8)
        clipped = SpatialClip(PerpendicularRegions(net), radius=2.0)
        origin = net.grid.node_at(4, 4)
        region = storage_region(clipped, origin)
        assert all(net.topology.euclidean(origin, n) <= 2.0 for n in region)
        assert len(region) < 8

    def test_clips_join(self):
        net = GridNetwork(8)
        clipped = SpatialClip(PerpendicularRegions(net), radius=2.0)
        origin = net.grid.node_at(4, 4)
        join = join_region(clipped, origin)
        assert all(net.topology.euclidean(origin, n) <= 2.0 for n in join)

    def test_local_intersection_preserved(self):
        # Clipped regions still intersect for tuples generated nearby —
        # the premise of the spatial-constraint optimization.
        net = GridNetwork(8)
        clipped = SpatialClip(PerpendicularRegions(net), radius=3.0)
        a = net.grid.node_at(4, 4)
        b = net.grid.node_at(5, 4)
        assert storage_region(clipped, a) & join_region(clipped, b)


class TestFactory:
    def test_known_names(self):
        net = GridNetwork(3)
        for name in ("pa", "broadcast", "local-storage", "centralized", "centroid"):
            assert make_strategy(name, net).name in (name, "virtual-grid")

    def test_pa_falls_back_on_random(self):
        net = RandomNetwork(15, radius=4.0, seed=2)
        assert make_strategy("pa", net).name == "virtual-grid"

    def test_unknown_name(self):
        with pytest.raises(PlanError):
            make_strategy("quantum", GridNetwork(2))
