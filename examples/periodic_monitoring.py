#!/usr/bin/env python
"""Periodic monitoring: the TinyDB workload on the deductive engine.

    SELECT count(*) FROM sensors WHERE temp > 70 GROUP BY epoch
    SAMPLE PERIOD 5s

The deductive framework subsumes the periodic-gathering engines it
extends (Section II-A): one rule does the WHERE in-network, and a head
aggregate grouped by epoch keeps each epoch's count as a derived fact.

Run:  python examples/periodic_monitoring.py
"""

import math
import random

import repro

PROGRAM = """
    hot(N, V, E) :- reading(N, V, E), V > 70.
    sensors_hot(E, count(N)) :- hot(N, V, E).
"""
PERIOD = 5.0


def main() -> None:
    net = repro.GridNetwork(8, seed=23)
    engine = repro.DeductiveEngine(PROGRAM, net, strategy="pa").install()
    rng = random.Random(23)

    def thermometer(node_id: int, epoch: int) -> float:
        # A heat wave passing through the field.
        x, y = net.topology.position(node_id)
        wave = 30.0 * math.exp(-((x - 2.0 * epoch) ** 2 + (y - 3.5) ** 2) / 8.0)
        return round(55.0 + wave + rng.uniform(-1, 1), 1)

    print("epoch  readings  sensors>70  (the heat wave passes through)")
    counts = []
    for epoch in range(5):
        net.run_until(net.now + PERIOD)
        for node_id in net.topology.node_ids:
            engine.publish(node_id, "reading", (node_id, thermometer(node_id, epoch), epoch))
        net.run_all()
        count = next((n for e, n in engine.rows("sensors_hot") if e == epoch), 0)
        counts.append(count)
        print(f"{epoch:>5}  {len(net.topology.node_ids):>8}  {count:>10}  {'#' * count}")

    assert any(c > 0 for c in counts), "the wave should trip the threshold"
    print("\ncommunication:", net.metrics.summary())


if __name__ == "__main__":
    main()
