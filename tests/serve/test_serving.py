"""The multi-tenant serving layer: admission, isolation, budgets.

Tenants share one simulated network but nothing else: handler kinds
are tenant-namespaced, GHT keys are tenant-prefixed, delivery reports
are per-engine, and the meter attributes shared-substrate radio
traffic back to the tenant whose phase message it carried.
"""

import random

import pytest

from repro import obs
from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program
from repro.dist.localized import logicj_program
from repro.net.network import GridNetwork
from repro.obs import instrument as _inst
from repro.serve import AdmissionError, QueryServer, TenantBudget
from repro.serve import server as serve_server

PROG = "j(K, A, B) :- r(K, A), s(K, B)."


@pytest.fixture
def telemetry():
    was = obs.enabled()
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    if not was:
        obs.disable()


def two_stream_pubs(rng, count, n_nodes, key_domain=3):
    pubs = []
    for k in range(count):
        pubs.append((rng.randrange(n_nodes), "r", (k % key_domain, f"a{k}")))
        pubs.append((rng.randrange(n_nodes), "s", (k % key_domain, f"b{k}")))
    return pubs


def oracle(pubs, program=PROG, pred="j"):
    db = Database()
    for _, p, a in pubs:
        db.assert_fact(p, a)
    evaluate(parse_program(program), db)
    return db.rows(pred)


def serve_tenants(loads, m=5, **engine_kwargs):
    net = GridNetwork(m)
    server = QueryServer(net)
    for tenant, pubs in loads.items():
        server.admit(tenant, PROG, outputs=("j",), **engine_kwargs)
        server.submit(tenant, pubs)
    server.run()
    return net, server


class TestAdmission:
    def test_admit_returns_running_session(self):
        server = QueryServer(GridNetwork(4))
        session = server.admit("alice", PROG)
        assert session.state == "running"
        assert session.tenant == "alice"
        assert server.session("alice") is session

    def test_duplicate_tenant_rejected(self):
        server = QueryServer(GridNetwork(4))
        server.admit("alice", PROG)
        with pytest.raises(AdmissionError, match="duplicate"):
            server.admit("alice", PROG)
        assert ("alice", "duplicate") in server.rejections

    def test_capacity_rejection_is_graceful(self, monkeypatch):
        monkeypatch.setattr(serve_server, "_MAX_TENANTS", 2)
        server = QueryServer(GridNetwork(4))
        server.admit("a", PROG)
        server.admit("b", PROG)
        with pytest.raises(AdmissionError, match="capacity"):
            server.admit("c", PROG)
        # Nothing half-installed: the admitted tenants still serve.
        assert set(server.sessions) == {"a", "b"}

    def test_invalid_program_rejected_before_install(self):
        server = QueryServer(GridNetwork(4))
        with pytest.raises(AdmissionError, match="invalid_program"):
            server.admit("bad", "j(X) :- ")
        assert "bad" not in server.sessions
        assert ("bad", "invalid_program") in server.rejections

    def test_unknown_tenant_lookup(self):
        server = QueryServer(GridNetwork(4))
        with pytest.raises(AdmissionError, match="unknown"):
            server.session("ghost")

    def test_program_gpa_cannot_run_is_rejected(self):
        """Admission compiles the engine that will run the program, so
        what the distributed compiler refuses (negation in a cycle) is a
        refusal, not an escaping ``PlanError``."""
        server = QueryServer(GridNetwork(4))
        with pytest.raises(AdmissionError, match="invalid_program"):
            server.admit("t", "win(X) :- move(X, Y), not win(Y).")
        assert not server.sessions
        assert server.rejections == [("t", "invalid_program")]
        # Nothing was installed under the tenant's id: it can come back.
        assert server.admit("t", PROG).state == "running"

    def test_xy_stratified_program_rejected(self):
        """The engine's refusal of an XY-stratified program (logicJ)
        reaches admission as a rejection naming LocalizedEngine."""
        server = QueryServer(GridNetwork(4, seed=4))
        with pytest.raises(AdmissionError, match="LocalizedEngine"):
            server.admit("t", logicj_program())
        assert server.rejections == [("t", "invalid_program")]

    def test_head_aggregate_admitted(self):
        """A head aggregate runs in-network like any rule: admitted,
        and its rows are evaluate()'s."""
        program = "total(sum(V)) :- reading(V)."
        pubs = [(node, "reading", (float(node % 5),)) for node in range(16)]
        server = QueryServer(GridNetwork(4))
        assert server.admit("t", program).state == "running"
        server.submit("t", pubs)
        server.run()
        assert server.results("t", "total") == oracle(pubs, program, "total") == {(10.0,)}


class TestIsolationAndExactness:
    def test_run_serves_until_the_queues_drain(self):
        rng = random.Random(5)
        _, server = serve_tenants({"t": two_stream_pubs(rng, 9, 25)})
        # Eighteen publishes at four per epoch: five epochs.
        assert server.epochs_run == 5
        assert server.run() == 0
        assert server.epochs_run == 5

    def test_concurrent_tenants_oracle_exact(self):
        rng = random.Random(3)
        loads = {f"t{i}": two_stream_pubs(rng, 6, 25) for i in range(4)}
        net, server = serve_tenants(loads)
        for tenant, pubs in loads.items():
            assert server.results(tenant, "j") == oracle(pubs), tenant

    def test_same_facts_do_not_cross_tenants(self):
        # Two tenants publish *identical* facts: each must derive its
        # own full result set (shared GHT keyspace would dedup across
        # tenants and drop derivations).
        rng = random.Random(5)
        pubs = two_stream_pubs(rng, 5, 16)
        net = GridNetwork(4)
        server = QueryServer(net)
        for tenant in ("a", "b"):
            server.admit(tenant, PROG, outputs=("j",))
            server.submit(tenant, list(pubs))
        server.run()
        expected = oracle(pubs)
        assert server.results("a", "j") == expected
        assert server.results("b", "j") == expected

    def test_handler_kinds_are_namespaced(self):
        net = GridNetwork(4)
        server = QueryServer(net)
        server.admit("a", PROG)
        server.admit("b", PROG)
        kinds = net.node(0)._handlers.keys()
        assert "gpa_store@a" in kinds and "gpa_store@b" in kinds
        assert "gpa_store" not in kinds

    def test_ght_keys_are_tenant_prefixed(self):
        net = GridNetwork(4)
        server = QueryServer(net)
        sa = server.admit("a", PROG)
        sb = server.admit("b", PROG)
        ka = sa.engine.ght.key_for_fact("j", (1, 2))
        kb = sb.engine.ght.key_for_fact("j", (1, 2))
        assert ka != kb
        assert ka.startswith("a:") and kb.startswith("b:")

    def test_delivery_reports_are_tenant_scoped(self):
        rng = random.Random(9)
        loads = {"busy": two_stream_pubs(rng, 8, 25), "idle": []}
        net, server = serve_tenants(loads)
        busy = server.session("busy").delivery_report()
        idle = server.session("idle").delivery_report()
        assert busy["delivered"] > 0
        assert idle.get("delivered", 0) == 0

    def test_meter_attributes_shared_traffic_per_tenant(self):
        rng = random.Random(7)
        loads = {"heavy": two_stream_pubs(rng, 10, 25),
                 "light": two_stream_pubs(rng, 2, 25)}
        net, server = serve_tenants(loads)
        assert server.meter.tx["heavy"] > server.meter.tx["light"] > 0

    def test_deterministic_given_seed(self):
        def once():
            rng = random.Random(21)
            loads = {f"t{i}": two_stream_pubs(rng, 5, 25) for i in range(3)}
            net, server = serve_tenants(loads)
            return (
                net.now,
                net.metrics.total_messages,
                {t: server.results(t, "j") for t in loads},
            )
        assert once() == once()


class TestBudgets:
    def test_budget_validation(self):
        with pytest.raises(ValueError):
            TenantBudget(max_facts=0)

    def test_fact_budget_drops_excess_publishes(self):
        rng = random.Random(1)
        net = GridNetwork(4)
        server = QueryServer(net)
        server.admit("a", PROG, max_facts=4, outputs=("j",))
        server.submit("a", two_stream_pubs(rng, 6, 16))
        server.run()
        session = server.session("a")
        assert session.published == 4
        assert session.dropped == 8  # 12 queued, 4 admitted

    def test_message_budget_evicts_tenant(self):
        rng = random.Random(2)
        net = GridNetwork(5)
        server = QueryServer(net)
        server.admit("hog", PROG, max_messages=10, outputs=("j",))
        server.submit("hog", two_stream_pubs(rng, 8, 25))
        server.run()
        session = server.session("hog")
        assert session.state == "evicted"
        assert ("hog", "message_budget") in server.rejections

    def test_eviction_spares_other_tenants(self):
        rng = random.Random(2)
        net = GridNetwork(5)
        server = QueryServer(net)
        server.admit("hog", PROG, max_messages=10, outputs=("j",))
        server.admit("good", PROG, outputs=("j",))
        hog_pubs = two_stream_pubs(rng, 8, 25)
        good_pubs = two_stream_pubs(rng, 5, 25)
        server.submit("hog", hog_pubs)
        server.submit("good", good_pubs)
        server.run()
        assert server.session("hog").state == "evicted"
        assert server.session("good").state != "evicted"
        assert server.results("good", "j") == oracle(good_pubs)


class TestTelemetry:
    def test_tenant_families_populated(self, telemetry):
        rng = random.Random(4)
        loads = {"a": two_stream_pubs(rng, 4, 25)}
        serve_tenants(loads)
        assert _inst.tenant_msgs.labels(tenant="a").value > 0
        assert _inst.tenant_result_latency.labels(tenant="a").count > 0

    def test_rejections_counted(self, telemetry, monkeypatch):
        monkeypatch.setattr(serve_server, "_MAX_TENANTS", 1)
        server = QueryServer(GridNetwork(4))
        server.admit("a", PROG)
        with pytest.raises(AdmissionError):
            server.admit("b", PROG)
        assert _inst.tenant_rejections.labels(
            tenant="b", reason="capacity"
        ).value == 1


class TestReport:
    def test_report_shape(self):
        rng = random.Random(6)
        loads = {"a": two_stream_pubs(rng, 3, 25)}
        net, server = serve_tenants(loads)
        report = server.report()
        assert report["epochs"] == server.epochs_run > 0
        assert report["makespan"] == net.now
        assert report["tenants"]["a"]["published"] == 6
        assert report["tenants"]["a"]["results"] == len(
            server.results("a", "j")
        )
        assert "imbalance" in report  # placement on by default


class TestPipelinedAdmission:
    """E24 through the serving layer: a tenant is admitted in the
    evaluation mode it asks for, and the report surfaces each tenant's
    release per rule."""

    def test_admitted_mode_reaches_the_engine(self):
        rng = random.Random(6)
        loads = {"a": two_stream_pubs(rng, 4, 25)}
        _, server = serve_tenants(loads, mode="pipelined")
        engine = server.session("a").engine
        assert engine.mode == "pipelined"
        assert server.results("a", "j") == oracle(loads["a"])
        report = server.report()
        assert report["tenants"]["a"]["mode"] == "pipelined"
        assert report["tenants"]["a"]["coordination"] == {0: "stream"}

    def test_modes_are_per_tenant(self):
        server = QueryServer(GridNetwork(5))
        server.admit("fast", PROG, mode="pipelined")
        server.admit("slow", PROG)
        assert server.session("fast").engine.mode == "pipelined"
        assert server.session("slow").engine.mode == "barrier"
        report = server.report()
        assert report["tenants"]["slow"]["mode"] == "barrier"
        assert report["tenants"]["slow"]["coordination"] == {0: "barrier"}

    def test_held_rules_report_their_reasons(self):
        server = QueryServer(GridNetwork(5))
        mixed = (
            "j(K, A, B, C) :- r(K, A), s(K, B), t(K, C). "
            "pair(A, B) :- p(K, A), q(K, B)."
        )
        server.admit("multi", mixed, scheme="multi-pass", mode="pipelined")
        engine = server.session("multi").engine
        assert engine.mode == "pipelined"
        report = server.report()
        assert report["tenants"]["multi"]["mode"] == "pipelined"
        assert report["tenants"]["multi"]["coordination"] == {
            0: "multi-pass", 1: "stream",
        }

    def test_fully_held_tenant_runs_barriers(self):
        server = QueryServer(GridNetwork(5))
        three_way = "j(K, A, B, C) :- r(K, A), s(K, B), t(K, C)."
        server.admit("multi", three_way, scheme="multi-pass", mode="pipelined")
        report = server.report()
        assert report["tenants"]["multi"]["mode"] == "barrier"
        assert report["tenants"]["multi"]["coordination"] == {0: "multi-pass"}

    def test_pipelined_and_barrier_tenants_agree(self):
        rng = random.Random(9)
        pubs = two_stream_pubs(rng, 5, 25)
        results = {}
        for mode in ("barrier", "pipelined"):
            _, server = serve_tenants({"t": list(pubs)}, mode=mode)
            results[mode] = server.results("t", "j")
        assert results["pipelined"] == results["barrier"] == oracle(pubs)
