"""Tests for ASCII network visualization."""

import pytest

from repro.core.errors import NetworkError
from repro.core.parser import parse_program
from repro.dist.gpa import GPAEngine
from repro.net.network import GridNetwork, RandomNetwork
from repro.net.visual import RAMP, heatmap, load_heatmap


class TestHeatmap:
    def test_shape(self):
        net = GridNetwork(4, 3)
        *rows, scale = heatmap(net, {0: 1.0}).splitlines()
        assert len(rows) == 3 and all(len(r) == 4 for r in rows)
        assert scale.startswith("scale:")

    def test_north_at_top(self):
        net = GridNetwork(3)
        top_right = net.grid.node_at(2, 2)
        text = heatmap(net, {top_right: 10.0})
        assert text.splitlines()[0][2] == RAMP[-1]

    def test_empty_values(self):
        # Nothing positive: an idle grid and no scale line.
        net = GridNetwork(2)
        text = heatmap(net, {})
        assert text.splitlines() == [RAMP[0] * 2] * 2

    def test_title_and_legend(self):
        net = GridNetwork(2)
        text = heatmap(net, {0: 4.0}, title="hello")
        assert text.startswith("hello")
        assert "scale" in text

    def test_requires_grid(self):
        net = RandomNetwork(12, radius=4.0, seed=1)
        with pytest.raises(NetworkError):
            heatmap(net, {})


class TestDerivedMaps:
    def engine(self, strategy):
        net = GridNetwork(6, seed=3)
        eng = GPAEngine(
            parse_program("j(K, A, B) :- r(K, A), s(K, B)."),
            net, strategy=strategy,
        ).install()
        for i in range(6):
            eng.publish(i * 5 % 36, "r", (i % 2, f"r{i}"))
            eng.publish(i * 7 % 36, "s", (i % 2, f"s{i}"))
        net.run_all()
        return eng, net

    def test_load_heatmap_shows_hotspot(self):
        eng, net = self.engine("centroid")
        text = load_heatmap(net, title="")
        # The centroid hotspot renders the hottest character somewhere.
        assert RAMP[-1] in text
