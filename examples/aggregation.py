#!/usr/bin/env python
"""In-network aggregation: head aggregates as derived facts (Section IV-C).

A rule filters interesting readings in-network (the GPA engine
materializes `hot`), and three head aggregates maintain their count,
maximum and mean.  Each hot reading is a valuation of the aggregate
rules, sent to the node its group hashes to; that node folds the group
and sends the row on, so the aggregates stay current as readings come
and go, with no collection epoch.

Run:  python examples/aggregation.py
"""

import random

import repro
from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program
from repro.net.aggregation import naive_collect_cost

PROGRAM = """
    hot(N, V) :- reading(N, V), V > 70.
    hot_count(count(N)) :- hot(N, V).
    hot_max(max(V)) :- hot(N, V).
    hot_avg(avg(V)) :- hot(N, V).
"""
SINK = 0


def main() -> None:
    net = repro.GridNetwork(8, seed=11)
    engine = repro.DeductiveEngine(PROGRAM, net, strategy="pa").install()

    rng = random.Random(11)
    readings = [(node, round(rng.uniform(40, 100), 1)) for node in range(64)]
    for node, value in readings:
        engine.publish(node, "reading", (node, value))
    net.run_all()

    hot = sorted(v for _n, v in readings if v > 70)
    print(f"{len(readings)} readings published, {len(hot)} above 70 degrees")
    assert engine.derived_count("hot") == len(hot)

    # The same program evaluated centrally over the same readings.
    db = Database()
    for node, value in readings:
        db.assert_fact("reading", (node, value))
    evaluate(parse_program(PROGRAM), db)

    for func in ("count", "max", "avg"):
        pred = f"hot_{func}"
        ((result,),) = engine.rows(pred)
        print(f"  {func:5s} of hot readings = {result:.2f}")
        assert engine.rows(pred) == db.rows(pred)

    print(f"maintained in-network for {net.metrics.total_messages} msgs in all; "
          f"naive collection of raw readings would cost "
          f"{naive_collect_cost(net, SINK)} msgs per epoch")


if __name__ == "__main__":
    main()
