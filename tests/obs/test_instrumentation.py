"""Integration: the instrumented layers feed the registry end to end."""

import gc
import sys
import threading
import weakref

import pytest

from repro import obs
from repro.obs import instrument as _inst
from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program
from repro.core.plan import GLOBAL_PLAN_CACHE, PlanCache
from repro.core.vector import VECTOR_STATS
from repro.dist.gpa import GPAEngine
from repro.net.faults import FaultInjector, FaultSchedule
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

    def test_gather_phase_instrumented(self, telemetry):
        engine, net = small_join_run()
        rows = engine.gather("j", 0)
        assert rows == {(1, "a", "b")}
        gpa = obs.REGISTRY.get("repro_gpa_phase_messages_total")
        assert gpa.labels(phase="gather", strategy="pa").value > 0
        names = {r["name"] for r in obs.SINK.records if r["type"] == "span"}
        assert "gpa.gather_all" in names

    def test_queue_hwm_tracked_without_telemetry(self):
        obs.disable()
        net = GridNetwork(3)
        net.node(1).register_handler("ping", lambda n, m: None)
        from repro.net.messages import Message
        net.node(0).send(1, Message("ping"))
        assert net.sim.queue_hwm >= 1


#: The families telemetry does not count itself, each with the count it
#: catches up from: per run (network, engine) ...
RUN_OWNED = {
    "repro_radio_tx_total": lambda net, eng: net.metrics.total_messages,
    "repro_radio_rx_total": lambda net, eng: sum(net.metrics.rx_count.values()),
    "repro_radio_drops_total": lambda net, eng: net.metrics.dropped,
    "repro_radio_collisions_total": lambda net, eng: net.radio.collision_count,
    "repro_radio_acks_total": lambda net, eng: net.metrics.acks,
    "repro_radio_retries_total": lambda net, eng: net.metrics.retries,
    "repro_radio_dup_suppressed_total": lambda net, eng: net.metrics.dup_suppressed,
    "repro_radio_retry_exhausted_total": lambda net, eng: net.metrics.retry_exhausted,
    "repro_sim_events_total": lambda net, eng: net.sim.events_processed,
    "repro_pipeline_streamed_derivations_total":
        lambda net, eng: eng.streamed_derivations,
    "repro_ght_failovers_total": lambda net, eng: eng.ght_failovers,
    "repro_ght_resyncs_total": lambda net, eng: eng.resyncs,
}
#: ... and process-wide.
GLOBAL_OWNED = {
    "repro_plan_cache_hits_total": lambda: GLOBAL_PLAN_CACHE.hits,
    "repro_plan_cache_misses_total": lambda: GLOBAL_PLAN_CACHE.misses,
    "repro_batch_rows_total": lambda: VECTOR_STATS["batch_rows"],
    "repro_vectorized_steps_total": lambda: VECTOR_STATS["vectorized_steps"],
    "repro_fallback_steps_total": lambda: VECTOR_STATS["fallback_steps"],
}


def lossy_reliable_run():
    """A pipelined, fault-tolerant join on a lossy, colliding, reliable
    grid whose result home crashes and recovers: every radio, transport
    and GPA family above counts something."""
    net = GridNetwork(5, seed=3, loss_rate=0.3, collisions=True,
                      reliable=True, ght_replicas=2)
    engine = GPAEngine(
        parse_program("j(K, A, B) :- r(K, A), s(K, B)."), net,
        strategy="pa", mode="pipelined", fault_tolerant=True,
    ).install()
    home = net.ght.nodes_for_fact("j", (1, "a", "b"))[0]
    schedule = FaultSchedule().crash(0.0, home).recover(30.0, home)
    engine.attach_faults(FaultInjector(net, schedule).arm())
    for k in range(4):
        engine.publish(k, "r", (1, f"a{k}"))
        engine.publish(24 - k, "s", (1, f"b{k}"))
    net.run_all()
    return net, engine


def central_run():
    """Vectorized, falling-back and cached rule firings, no network."""
    db = Database()
    for i in range(30):
        db.assert_fact("e", (i, i + 1))
    db.assert_fact("big", (2 ** 60,))
    evaluate(parse_program("""
        tc(X, Y) :- e(X, Y).
        tc(X, Z) :- tc(X, Y), e(Y, Z).
        next(X + 1) :- big(X).
    """), db)


def run_counts(net, engine):
    return {name: count(net, engine) for name, count in RUN_OWNED.items()}


def global_counts():
    return {name: count() for name, count in GLOBAL_OWNED.items()}


def plus(*counts):
    return {name: sum(c.get(name, 0) for c in counts)
            for name in {**RUN_OWNED, **GLOBAL_OWNED}}


def minus(after, before):
    return {name: after[name] - before[name] for name in after}


def folded_totals():
    obs.prometheus_snapshot()  # a snapshot is a catch-up boundary
    return {
        name: sum(child.value for _v, child in obs.REGISTRY.get(name).series())
        for name in {**RUN_OWNED, **GLOBAL_OWNED}
    }


def each_family_counted():
    """One run of each kind: every folded family counts something."""
    before = global_counts()
    net, engine = lossy_reliable_run()
    central_run()
    expected = plus(run_counts(net, engine), minus(global_counts(), before))
    assert all(expected.values()), expected
    tx = obs.REGISTRY.get("repro_radio_tx_total")
    for category, n in net.metrics.category_tx.items():
        assert tx.labels(category=category).value == n
    return expected


def plan_cache_cleared():
    """``GLOBAL_PLAN_CACHE.clear()`` zeroes the owner, not the family."""
    before = global_counts()
    central_run()
    seen = minus(global_counts(), before)
    GLOBAL_PLAN_CACHE.clear()
    before = global_counts()  # the cache's hits and misses back at 0
    central_run()
    return plus(seen, minus(global_counts(), before))


def metrics_reset():
    """``MetricsCollector.reset()`` zeroes the owner, not the family."""
    before = global_counts()
    net, engine = lossy_reliable_run()
    seen = run_counts(net, engine)
    net.metrics.reset()
    for k in range(4, 8):
        engine.publish(k, "r", (1, f"a{k}"))
    net.run_all()
    after = run_counts(net, engine)
    for name in ("repro_sim_events_total", "repro_radio_collisions_total",
                 "repro_pipeline_streamed_derivations_total",
                 "repro_ght_failovers_total", "repro_ght_resyncs_total"):
        after[name] -= seen[name]  # not MetricsCollector's: not reset
    return plus(seen, after, minus(global_counts(), before))


def network_collected():
    """A network collected after its run leaves its counts behind."""
    before = global_counts()
    net, engine = lossy_reliable_run()
    seen = plus(run_counts(net, engine), minus(global_counts(), before))
    gone = weakref.ref(net.metrics), weakref.ref(net.radio), weakref.ref(engine)
    del net, engine
    gc.collect()
    assert [ref() for ref in gone] == [None, None, None]
    assert folded_totals() == seen
    return seen


def counted_before_enable():
    """Counts the layers made while telemetry was off stay out."""
    obs.disable()
    net, engine = lossy_reliable_run()
    central_run()
    obs.enable()
    assert not any(folded_totals().values())
    seen = run_counts(net, engine)
    before = global_counts()
    for k in range(4, 8):
        engine.publish(24 - k, "s", (1, f"b{k}"))
    net.run_all()
    central_run()
    return plus(minus(run_counts(net, engine), seen),
                minus(global_counts(), before))


class TestFoldedFamilies:
    """Each folded family equals the count its owner keeps, also when
    the owner is zeroed, collected, or counted with telemetry off."""

    @pytest.mark.parametrize("scenario", [
        each_family_counted, plan_cache_cleared, metrics_reset,
        network_collected, counted_before_enable,
    ], ids=lambda f: f.__name__)
    def test_family_equals_owner(self, telemetry, scenario):
        expected = scenario()
        assert folded_totals() == expected

    def test_owners_built_while_catching_up(self, telemetry):
        """Owners made in other threads (``QueryServer.admit`` may build
        engines concurrently) neither break nor double a catch-up."""
        keep, errors = [], []

        def build():
            try:
                for _ in range(1000):
                    cache = PlanCache()
                    cache.hits += 1
                    keep.append(cache)
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(3):
                threads = [threading.Thread(target=build) for _ in range(4)]
                for t in threads:
                    t.start()
                # A fixed number of catch-ups while the owners are built:
                # the same work however the scheduler interleaves them.
                for _ in range(5):
                    _inst.catch_up()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert folded_totals()["repro_plan_cache_hits_total"] == 12_000

    def test_radio_builds_no_event_for_telemetry(self, telemetry):
        assert GridNetwork(3).radio.observers == []


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
