#!/usr/bin/env python
"""Target tracking: local belief built-ins + in-network max aggregate.

Section II-B: tracking needs belief-state / information-utility math
(local built-ins — here, signal strength) and a *maximum aggregate* for
the collaboration step.  A `detect` rule drops weak readings
in-network; a head aggregate keeps each epoch's strongest signal, and
the rule it feeds elects the sensor that sensed it as the leader,
whose position is the track estimate.

Run:  python examples/target_tracking.py
"""

import repro
from repro.workloads.tracking import TargetTrackingWorkload

LEADER_RULES = """
    best(E, max(S)) :- detect(N, L, S, E).
    leader(E, N, L) :- best(E, S), detect(N, L, S, E).
"""


def main() -> None:
    net = repro.GridNetwork(10, seed=5)
    workload = TargetTrackingWorkload(net.topology, epochs=5, seed=5)
    engine = repro.DeductiveEngine(
        workload.program_text() + LEADER_RULES, net, strategy="pa"
    ).install()

    print("epoch  target        leader  estimate      error")
    for epoch in range(workload.epochs):
        for when, node, pred, args in workload.readings_for_epoch(epoch):
            net.run_until(max(net.now, when))
            engine.publish(node, pred, args)
        net.run_all()

        leaders = [(n, l) for e, n, l in engine.rows("leader") if e == epoch]
        if not leaders:
            print(f"{epoch:>5}  (target out of sensing range)")
            continue
        leader, estimate = max(leaders)  # ties go to the highest node id
        error = workload.tracking_error(epoch, estimate)
        target = workload.target_position(epoch)
        print(f"{epoch:>5}  ({target[0]:4.1f},{target[1]:4.1f})  "
              f"{leader:>6}  ({estimate[0]:4.1f},{estimate[1]:4.1f})  "
              f"{error:5.2f}")
        assert leader == workload.best_sensor(epoch)
        assert error <= workload.sensing_range

    print("\nleader always the best-informed sensor; error bounded by "
          "the sensing range")
    print("communication:", net.metrics.summary())


if __name__ == "__main__":
    main()
