"""Tests for in-network result gathering."""

import pytest

import repro
from repro.core.parser import parse_program
from repro.dist.gpa import GPAEngine
from repro.net.network import GridNetwork

PROGRAM = "j(K, A, B) :- r(K, A), s(K, B)."


def build(m=6, seed=2):
    net = GridNetwork(m, seed=seed)
    engine = GPAEngine(parse_program(PROGRAM), net, strategy="pa").install()
    for i in range(4):
        engine.publish(i * 3, "r", (i, f"r{i}"))
        engine.publish(i * 5 + 1, "s", (i, f"s{i}"))
    net.run_all()
    return engine, net


class TestGather:
    def test_sink_receives_all_results(self):
        engine, net = build()
        rows = engine.gather("j", sink=0)
        assert rows == engine.rows("j")
        assert len(rows) == 4

    def test_gather_pays_messages(self):
        engine, net = build()
        before = net.metrics.total_messages
        engine.gather("j", sink=0)
        assert net.metrics.total_messages > before
        assert net.metrics.category_tx["gather"] > 0

    def test_gather_to_hash_node_is_free_for_local_fact(self):
        net = GridNetwork(5, seed=4)
        engine = GPAEngine(parse_program(PROGRAM), net, strategy="pa").install()
        engine.publish(2, "r", (1, "a"))
        engine.publish(7, "s", (1, "b"))
        net.run_all()
        (home,) = [
            nid for nid, rt in engine.runtimes.items()
            if any(rt.derived.visible())
        ]
        before = net.metrics.category_tx.get("gather", 0)
        rows = engine.gather("j", sink=home)
        after = net.metrics.category_tx.get("gather", 0)
        assert rows == {(1, "a", "b")}
        assert after == before  # the fact already lives at the sink

    def test_empty_result(self):
        net = GridNetwork(4)
        engine = GPAEngine(parse_program(PROGRAM), net, strategy="pa").install()
        assert engine.gather("j", sink=0) == set()

    def test_sequential_gathers_independent(self):
        engine, net = build()
        first = engine.gather("j", sink=0)
        second = engine.gather("j", sink=15)
        assert first == second

    def test_gather_reflects_deletions(self):
        net = GridNetwork(5, seed=4)
        engine = GPAEngine(parse_program(PROGRAM), net, strategy="pa").install()
        tid = engine.publish(2, "r", (1, "a"))
        engine.publish(7, "s", (1, "b"))
        net.run_all()
        assert engine.gather("j", sink=0) == {(1, "a", "b")}
        engine.retract(2, "r", (1, "a"), tid)
        net.run_all()
        assert engine.gather("j", sink=0) == set()
