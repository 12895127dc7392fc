"""Run every network algorithm the package has, then check that
networkx was never imported: it is the test oracles' dependency only.

Runs without pytest or networkx installed (``python
tests/integration/no_networkx_smoke.py`` with ``src`` on the path);
exits non-zero on the first failed check.
"""

import sys

from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program
from repro.dist.gpa import GPAEngine
from repro.dist.localized import build_sptree, logich_program, visible_rows
from repro.net.aggregation import TagAggregator
from repro.net.faults import FaultInjector, FaultSchedule
from repro.net.network import GridNetwork
from repro.net.topology import RandomGeometricTopology

TC = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z)."
JOIN = "j(K, A, B) :- r(K, A), s(K, B)."


def central() -> None:
    db = Database()
    for a in range(6):
        db.assert_fact("e", (a, a + 1))
    assert len(evaluate(parse_program(TC), db).rows("tc")) == 21
    db = Database()
    for a, b in [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]:
        db.assert_fact("g", (a, b))
    db.assert_fact("h", ("a", "a", 0))
    rows = evaluate(parse_program(logich_program()), db).rows("h")
    assert {(y, d) for _x, y, d in rows} == {("a", 0), ("b", 1), ("c", 1), ("d", 2)}


def gpa_round(mode: str, strategy: str = "pa", faults=None) -> None:
    net = GridNetwork(4, seed=1)
    if faults is not None:
        injector = FaultInjector(net, faults).arm()
    engine = GPAEngine(JOIN, net, strategy=strategy, mode=mode).install()
    for k in range(3):
        engine.publish(k, "r", (k, "a"))
        engine.publish(15 - k, "s", (k, "b"))
    net.run_all()
    if faults is None:
        assert engine.rows("j") == {(k, "a", "b") for k in range(3)}
        return
    # Frames across the cut are lost; the heal brings every link back.
    assert engine.rows("j") <= {(k, "a", "b") for k in range(3)}
    assert injector.summary() == {"partition": 1, "heal": 1}
    assert all(net.radio.link_is_up(a, b)
               for a, nbrs in net.topology.adjacency.items() for b in nbrs)


def main() -> None:
    central()
    for mode in ("barrier", "pipelined"):
        gpa_round(mode)
    gpa_round("barrier", strategy="local-storage")  # a DFS walk over a BFS tree
    gpa_round("barrier", faults=FaultSchedule().partition(0.0, [0, 1, 4, 5]).heal(30.0))

    net = GridNetwork(4, seed=2)
    engine, pred = build_sptree(net, 0, "j")
    net.run_all()
    assert {(y, d) for y, d in visible_rows(engine, pred)} == {
        (node, sum(net.topology.coords(node))) for node in net.topology.node_ids
    }

    net = GridNetwork(4)
    tag = TagAggregator(net, root=0)
    tag.start("count", {node: 1.0 for node in net.topology.node_ids})
    net.run_all()
    assert tag.result == 16

    topo = RandomGeometricTopology(30, radius=0.8, seed=2)
    assert len(topo) < 30 and topo.diameter > 0  # the giant component

    assert "networkx" not in sys.modules, "networkx was imported"


if __name__ == "__main__":
    main()
    print("no networkx: ok")
