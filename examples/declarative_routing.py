#!/usr/bin/env python
"""Declarative routing: a routing protocol in two rules.

The paper extends the declarative-networking line of work ([12],
SNLog), whose flagship demo is expressing routing protocols as logic.
Here a bounded distance-vector protocol is the two-rule program

    route(X, Y, Y, 1)     :- g(X, Y).
    route(X, D, Y, C + 1) :- g(X, Y), route(Y, D, _, C), C + 1 <= B.

compiled to localized joins: every node ends up owning its complete
routing table, costs equal true hop distances, and the message count is
the protocol's convergence cost.

Run:  python examples/declarative_routing.py
"""

import networkx as nx

import repro
from repro.dist.routing_app import RoutingTable, build_routing, routing_program


def main() -> None:
    net = repro.GridNetwork(5, seed=9)
    print("program:")
    print(routing_program(net.topology.diameter))

    engine = build_routing(net)
    net.run_all(max_events=5_000_000)
    table = RoutingTable(engine)

    errors = 0
    for src in net.topology.node_ids:
        truth = nx.single_source_shortest_path_length(nx.Graph(net.topology.adjacency), src)
        for dst, d in truth.items():
            if src != dst and table.cost(src, dst) != d:
                errors += 1
    print(f"route entries: {len(table.best)}, coverage: {table.coverage():.0%}, "
          f"cost mismatches: {errors}")

    src, dst = 0, len(net) - 1
    print(f"path {src} -> {dst}: {table.path(src, dst)}")
    print(f"convergence cost: {net.metrics.total_messages} msgs, "
          f"{net.metrics.total_bytes} bytes")
    assert errors == 0 and table.coverage() == 1.0


if __name__ == "__main__":
    main()
