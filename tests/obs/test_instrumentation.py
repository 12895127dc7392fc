"""Integration: the instrumented layers feed the registry end to end."""

import pytest

from repro import obs
from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program
from repro.dist.gpa import GPAEngine
from repro.net.network import GridNetwork
from repro.cli import Shell


@pytest.fixture
def telemetry():
    was = obs.enabled()
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    if not was:
        obs.disable()


def small_join_run():
    net = GridNetwork(4, seed=1)
    engine = GPAEngine(
        parse_program("j(K, A, B) :- r(K, A), s(K, B)."), net, strategy="pa"
    ).install()
    engine.publish(1, "r", (1, "a"))
    engine.publish(14, "s", (1, "b"))
    net.run_all()
    return engine, net


class TestEvalInstrumentation:
    def test_rule_firings_and_iterations(self, telemetry):
        program = parse_program(
            "anc(X, Y) :- par(X, Y). anc(X, Z) :- par(X, Y), anc(Y, Z)."
        )
        db = Database()
        db.assert_fact("par", ("a", "b"))
        db.assert_fact("par", ("b", "c"))
        db.assert_fact("par", ("c", "d"))
        evaluate(program, db)
        firings = obs.REGISTRY.get("repro_rule_firings_total")
        total = sum(c.value for _v, c in firings.series())
        assert total >= 6  # 3 base + 3+2+1 recursive firings, minus dedup
        iters = obs.REGISTRY.get("repro_fixpoint_iterations")
        assert iters.labels(evaluator="semi-naive").count >= 1
        assert obs.REGISTRY.get("repro_join_probes_total").value > 0
        names = [r["name"] for r in obs.SINK.records if r["type"] == "span"]
        assert "eval.fixpoint" in names and "eval.stratum" in names

    def test_xy_stages_report_their_frontier(self, telemetry):
        db = Database()
        for u, v in [("a", "b"), ("b", "c"), ("c", "d")]:
            db.assert_fact("g", (u, v))
            db.assert_fact("g", (v, u))
        evaluate(parse_program("""
            h(a, a, 0).
            h(a, X, 1) :- g(a, X).
            hp(Y, D + 1) :- h(_, Y, Dp), D + 1 > Dp, h(_, X, D), g(X, Y).
            h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
        """), db)
        stages = [r["attrs"] for r in obs.SINK.records
                  if r["type"] == "span" and r["name"] == "eval.stage"]
        # Both recursive rules read h[stage-1]: one h row per stage, twice.
        assert stages == [
            {"stage": s, "frontier_rows": 2, "added": added}
            for s, added in [(1, 1), (2, 2), (3, 2), (4, 1)]
        ]
        deltas = obs.REGISTRY.get("repro_delta_tuples")
        assert deltas.labels(predicate="h").count == 8
        iters = obs.REGISTRY.get("repro_fixpoint_iterations")
        assert iters.labels(evaluator="xy").sum == 4

    def test_disabled_records_nothing(self):
        obs.disable()
        obs.reset()
        db = Database()
        db.assert_fact("p", (1,))
        evaluate(parse_program("q(X) :- p(X)."), db)
        assert len(obs.SINK) == 0
        firings = obs.REGISTRY.get("repro_rule_firings_total")
        assert sum(c.value for _v, c in firings.series()) == 0


class TestNetAndGpaInstrumentation:
    def test_phase_counters_and_latencies(self, telemetry):
        engine, net = small_join_run()
        assert engine.rows("j") == {(1, "a", "b")}
        gpa = obs.REGISTRY.get("repro_gpa_phase_messages_total")
        assert gpa.labels(phase="storage", strategy="pa").value > 0
        assert gpa.labels(phase="join", strategy="pa").value > 0
        assert gpa.labels(phase="result", strategy="pa").value > 0
        lat = obs.REGISTRY.get("repro_phase_latency_seconds")
        assert lat.labels(phase="storage", strategy="pa", mode="barrier").count > 0
        assert lat.labels(phase="join", strategy="pa", mode="barrier").count > 0
        res = obs.REGISTRY.get("repro_result_latency_seconds")
        assert res.labels(predicate="j").count == 1
        assert obs.REGISTRY.get("repro_sim_events_total").value > 0
        assert obs.REGISTRY.get("repro_sim_queue_depth_hwm").value > 0
        tx = obs.REGISTRY.get("repro_radio_tx_total")
        assert tx.labels(category="storage").value == \
            net.metrics.category_tx["storage"]

    def test_gather_phase_instrumented(self, telemetry):
        engine, net = small_join_run()
        rows = engine.gather("j", 0)
        assert rows == {(1, "a", "b")}
        gpa = obs.REGISTRY.get("repro_gpa_phase_messages_total")
        assert gpa.labels(phase="gather", strategy="pa").value > 0
        names = {r["name"] for r in obs.SINK.records if r["type"] == "span"}
        assert "gpa.gather_all" in names

    def test_drops_counted(self, telemetry):
        net = GridNetwork(3, loss_rate=0.9, seed=3)
        net.node(1).register_handler("ping", lambda n, m: None)
        from repro.net.messages import Message
        for _ in range(20):
            net.node(0).send(1, Message("ping"))
        net.run_all()
        drops = obs.REGISTRY.get("repro_radio_drops_total")
        assert drops.value == net.metrics.dropped > 0

    def test_queue_hwm_tracked_without_telemetry(self):
        obs.disable()
        net = GridNetwork(3)
        net.node(1).register_handler("ping", lambda n, m: None)
        from repro.net.messages import Message
        net.node(0).send(1, Message("ping"))
        assert net.sim.queue_hwm >= 1


class TestShellMetricsCommand:
    def test_metrics_off_hint(self):
        obs.disable()
        shell = Shell()
        assert "telemetry is off" in shell.handle(":metrics")

    def test_metrics_toggle_and_snapshot(self, telemetry):
        shell = Shell()
        assert shell.handle(":metrics off") == "telemetry disabled."
        assert shell.handle(":metrics on") == "telemetry enabled."
        shell.handle("p(1).")
        shell.handle("q(X) :- p(X).")
        shell.handle(":eval")
        out = shell.handle(":metrics")
        assert "repro_rule_firings_total" in out
        assert shell.handle(":metrics reset") == "telemetry reset."
        assert shell.handle(":metrics bogus").startswith("usage:")
