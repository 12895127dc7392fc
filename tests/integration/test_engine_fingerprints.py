"""Engine-identity fingerprints across the full stack.

The columnar storage / batch-execution engine replaces the innards of
``Relation`` and the compiled plan executor, but every layer above —
the distributed E1-style joins, the lossy-completeness trials, the
reliable-transport retransmission schedules, the multi-tenant serving
stack — must be *byte-identical* to the seed oracle's.  These
tests run representative E1/E7/E18/E21 workloads twice, once on the
production executors and once under the seed engine, and compare complete
fingerprints: derived rows, message counts, energy totals, per-tenant
result sets.  They extend the pinning pattern of
``test_fault_rng_identity`` from "defaults unchanged" to "engine choice
unobservable".
"""

import os
import sys

import pytest

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "benchmarks"
)
sys.path.insert(0, BENCH_DIR)

from harness import run_join_workload  # noqa: E402

from repro.core.plan import seed_engine  # noqa: E402
from repro.net.network import GridNetwork  # noqa: E402
from repro.serve import QueryServer  # noqa: E402


def per_engine(run):
    """Run ``run()`` on the production executors and under the seed
    engine; return both fingerprints for comparison."""
    columnar = run()
    with seed_engine():
        seed = run()
    return columnar, seed


class TestEngineChoiceUnobservable:
    def test_e1_style_join_workload(self):
        def run():
            engine, net, expected = run_join_workload(6, "pa", seed=3)
            return (
                engine.rows("j"),
                expected,
                net.metrics.total_messages,
                round(net.metrics.total_energy, 6),
            )

        columnar, seed = per_engine(run)
        assert columnar == seed
        assert columnar[2] == 581  # the E20-era pinned constant still holds

    def test_e7_style_lossy_completeness(self):
        from bench_e7_robustness import trial

        def run():
            return (
                trial("pa", 0.1, 6, 8, 0),
                trial("centralized", 0.1, 6, 8, 1),
                trial("pa", 0.0, 6, 8, 2),
            )

        columnar, seed = per_engine(run)
        assert columnar == seed
        assert columnar[2] == 1.0

    def test_e18_style_reliable_transport(self):
        from bench_e18_reliable_loss import measure

        def run():
            return measure(0.10, m=6, tuples=6, reps=2, reliable=True)

        columnar, seed = per_engine(run)
        assert columnar == seed
        assert columnar["completeness"] == 1.0

    def test_e21_style_multitenant_serving(self):
        from bench_e21_multitenant import PROG, oracle, tenant_loads

        def run():
            loads = tenant_loads(2, 6, 36, seed=11)
            net = GridNetwork(6)
            server = QueryServer(net, placement=True)
            for tenant, pubs in loads.items():
                server.admit(tenant, PROG, outputs=("j",))
                server.submit(tenant, list(pubs))
            server.run()
            results = {t: server.results(t, "j") for t in loads}
            exact = {
                t: server.results(t, "j") == oracle(p)
                for t, p in loads.items()
            }
            return (
                results,
                exact,
                round(net.now, 9),
                net.metrics.total_messages,
                round(net.metrics.total_energy, 6),
            )

        columnar, seed = per_engine(run)
        assert columnar == seed
        assert all(columnar[1].values())
