"""Pipelined (barrier-free) GPA evaluation — the E24 exactness contract.

The one property everything here leans on: every rule the release
analysis (:func:`repro.core.stratify.rule_releases`) lets stream runs
*oracle-exact* under ``mode="pipelined"`` — same final rows AND same
derivation store as barrier mode on the same workload, because Theorem
3's timestamp discipline is data-dependent, not arrival-time-dependent.
The differential battery covers the E1 (grid join), E7/E18 (loss +
reliable transport), E15 (latency) and E20 (fault injector) workload
families, deletions included; programs mixing held rules (negation,
multi-pass joins, finite windows) with streamed ones; and a Hypothesis
sweep over random programs, schemes, windows and staggered publishes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.errors import PlanError
from repro.core.parser import parse_program
from repro.dist.gpa import GPAEngine
from repro.net.faults import FaultInjector, FaultSchedule
from repro.net.network import GridNetwork

JOIN2 = "j(K, A, B) :- r(K, A), s(K, B)."
JOIN3 = "j(K, A, B, C) :- r(K, A), s(K, B), t(K, C)."
TC = "tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z)."
SELFJOIN = "tri(X, Z) :- e(X, Y), e(Y, Z)."
#: Both subgoals match either edge of a mutual pair: two derivations of
#: one fact whose facts differ only in their body positions.
MUTUAL = "mutual(X, Y) :- e(X, Y), e(Y, X)."
BUILTIN = "big(K, A, B) :- r(K, A), s(K, B), K > 0."
#: Guarded (win-move-shaped) negation plus an *independent* monotone
#: rule: `pair` may stream eagerly, while `reach`/`lose` sit inside the
#: negation cone and must keep their stratum's delay.
WINMOVE_MIXED = """
    reach(Y) :- move(X, Y).
    lose(X) :- move(X, Y), not reach(X).
    pair(A, B) :- p(A, K), q(B, K).
"""


def stream_pubs(rng, preds, count, key_domain=3):
    return [
        (pred, (rng.randrange(key_domain), f"{pred}{i}"))
        for i in range(count) for pred in preds
    ]


def edge_pubs(rng, count, domain=6, pred="e"):
    return [
        (pred, (rng.randrange(domain), rng.randrange(domain)))
        for _ in range(count)
    ]


def winmove_pubs(rng):
    pubs = edge_pubs(rng, 8, domain=5, pred="move")
    for i in range(6):
        pubs.append(("p", (f"p{i}", rng.randrange(3))))
        pubs.append(("q", (f"q{i}", rng.randrange(3))))
    return pubs


WORKLOADS = {
    "join2": (JOIN2, ("j",), lambda rng: stream_pubs(rng, ("r", "s"), 10)),
    "join3": (JOIN3, ("j",), lambda rng: stream_pubs(rng, ("r", "s", "t"), 6)),
    "tc": (TC, ("tc",), lambda rng: edge_pubs(rng, 14)),
    "selfjoin": (SELFJOIN, ("tri",), lambda rng: edge_pubs(rng, 12)),
    "mutual": (MUTUAL, ("mutual",), lambda rng: edge_pubs(rng, 14, domain=4)),
    "builtin": (BUILTIN, ("big",), lambda rng: stream_pubs(rng, ("r", "s"), 8)),
    "winmove-mixed": (WINMOVE_MIXED, ("reach", "lose", "pair"), winmove_pubs),
}


def run_mode(program_text, pubs, mode, m=6, strategy="pa", dels=0,
             engine_kwargs=None, seed=3, stagger=False, **net_kwargs):
    """One full workload run: publish everything, drain, optionally
    retract ``dels`` random published tuples, drain again.  With
    ``stagger`` the simulation runs U(0, 0.05) s after a publish with
    probability 0.3, so publishes interleave with derivations."""
    net = GridNetwork(m, seed=seed, **net_kwargs)
    engine = GPAEngine(
        parse_program(program_text), net, strategy=strategy, mode=mode,
        **(engine_kwargs or {}),
    ).install()
    rng = random.Random(7)
    pause = random.Random(seed)
    nodes = sorted(net.nodes)
    published = []
    for pred, args in pubs:
        nid = rng.choice(nodes)
        tid = engine.publish(nid, pred, args)
        published.append((nid, pred, args, tid))
        if stagger and pause.random() < 0.3:
            net.run_until(net.sim.now + pause.uniform(0, 0.05))
    net.run_all()
    if dels:
        for nid, pred, args, tid in random.Random(8).sample(published, dels):
            engine.retract(nid, pred, args, tid)
        net.run_all()
    return engine


def held(engine):
    """The rules that keep Theorem 3's delay, by head, with the reason."""
    return {
        (engine.plan.by_id[rid].head.predicate, why)
        for rid, why in engine.releases.items() if why is not None
    }


def assert_exact(program_text, pubs, heads, expect_streaming=True, **kw):
    """The differential: barrier and pipelined runs of the same
    workload agree on every head's rows and on the derivation store."""
    barrier = run_mode(program_text, pubs, "barrier", **kw)
    pipelined = run_mode(program_text, pubs, "pipelined", **kw)
    assert pipelined.mode == "pipelined", held(pipelined)
    for head in heads:
        assert pipelined.rows(head) == barrier.rows(head), head
    assert pipelined.derivation_store() == barrier.derivation_store()
    if expect_streaming:
        assert pipelined.streamed_derivations > 0
        assert barrier.streamed_derivations == 0
    return barrier, pipelined


class TestDifferentialExactness:
    """E1-family grid joins and recursion, both strategies."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("strategy", ["pa", "centralized"])
    def test_same_rows_and_store(self, name, strategy):
        program, heads, gen = WORKLOADS[name]
        pubs = gen(random.Random(17))
        assert_exact(program, pubs, heads, strategy=strategy)

    @pytest.mark.parametrize("name", ["join2", "tc", "winmove-mixed", "mutual"])
    def test_same_rows_and_store_after_deletions(self, name):
        program, heads, gen = WORKLOADS[name]
        pubs = gen(random.Random(17))
        assert_exact(program, pubs, heads, dels=4)

    @pytest.mark.parametrize("n1, n2, eps", [
        (27, 7, 0.001), (27, 15, 0.005), (0, 7, 0.001), (0, 7, 0.02),
        (0, 7, 0.05), (7, 0, 0.05), (0, 63, 0.005), (7, 56, 0.001),
        (0, 36, 0.001), (27, 36, 0.02), (0, 7, 0.1), (27, 7, 0.2),
    ])
    def test_add_racing_a_deletion_mark_is_cancelled(self, n1, n2, eps):
        """``s`` is generated ``eps`` after ``r``'s deletion and meets
        replicas of ``r`` the mark has not reached: its add carries its
        own, later timestamp, and the retro token's subs must outrank it
        (:meth:`JoinToken.stamp`) in whichever order the two arrive.
        Past ``join_delay`` (0.165 here) the mark is everywhere."""
        net = GridNetwork(8, seed=3)
        engine = GPAEngine(parse_program(JOIN2), net, mode="pipelined").install()
        tid = engine.publish(n1, "r", (1, "a"))
        net.run_all()
        engine.retract(n1, "r", (1, "a"), tid)
        net.run_until(net.sim.now + eps)
        engine.publish(n2, "s", (1, "b"))
        net.run_all()
        assert engine.rows("j") == set()

    def test_winmove_negation_cone_held_back(self):
        """The monotone rules *outside* the negation cone stream; the
        rules feeding the negation keep barrier scheduling (streaming
        them would reorder the negation rule's add/sub arrivals)."""
        program, heads, gen = WORKLOADS["winmove-mixed"]
        _, pipelined = assert_exact(program, gen(random.Random(17)), heads)
        assert held(pipelined) == {("reach", "feeds reach"), ("lose", "negation")}


class TestUnderLossAndFaults:
    """E7/E18-family: lossy links with the reliable transport, and the
    E20 fault injector.  The retry path changes *when* messages land,
    never *what* the modes compute — exactness must survive both."""

    def test_lossy_reliable_transport(self):
        program, heads, gen = WORKLOADS["join2"]
        pubs = gen(random.Random(17))
        assert_exact(
            program, pubs, heads, loss_rate=0.15, reliable=True,
        )

    def test_lossy_reliable_recursion(self):
        program, heads, gen = WORKLOADS["tc"]
        pubs = gen(random.Random(17))
        assert_exact(
            program, pubs, heads, loss_rate=0.1, reliable=True,
        )

    def _run_faulty(self, mode):
        net = GridNetwork(6, seed=13, ght_replicas=3, reliable=True,
                          loss_rate=0.1)
        engine = GPAEngine(
            parse_program(JOIN2), net, strategy="pa",
            fault_tolerant=True, mode=mode,
        ).install()
        victim = net.grid.node_at(4, 2)
        schedule = FaultSchedule().crash(0.0, victim).recover(30.0, victim)
        injector = FaultInjector(net, schedule).arm()
        engine.attach_faults(injector)
        engine.publish(net.grid.node_at(1, 2), "r", (1, "a"))
        engine.publish(net.grid.node_at(4, 5), "s", (1, "b"))
        engine.publish(net.grid.node_at(0, 0), "r", (2, "c"))
        engine.publish(net.grid.node_at(5, 5), "s", (2, "d"))
        net.run_all()
        return engine

    def test_fault_injector_crash_recover(self):
        barrier = self._run_faulty("barrier")
        pipelined = self._run_faulty("pipelined")
        assert pipelined.mode == "pipelined"
        assert pipelined.rows("j") == barrier.rows("j")
        assert pipelined.rows("j") == {(1, "a", "b"), (2, "c", "d")}
        assert pipelined.derivation_store() == barrier.derivation_store()


class TestLatencyWins:
    """E15-family: the whole point — streaming beats the barrier."""

    def test_pipelined_mean_latency_is_lower(self):
        program, heads, gen = WORKLOADS["join2"]
        pubs = gen(random.Random(17))
        barrier, pipelined = assert_exact(program, pubs, heads, m=8)
        b = barrier.latency_report("j")
        p = pipelined.latency_report("j")
        assert b["count"] == p["count"] > 0
        assert p["mean"] < b["mean"]
        assert p["max"] <= b["max"]


#: A side join no held rule reaches: it must stream beside each of them.
PAIR = "pair(A, B) :- p(K, A), q(K, B)."

#: Programs that once sent every rule back to barriers, each with the
#: rules that still hold, by head and reason.  In each the side join
#: streams and so does every rule outside the held rules' cone — a
#: feeder of the multi-pass join, a consumer of a held rule's results.
MIXED = {
    "multi-pass": (
        """
        r(K, A) :- r0(K, A).
        j(K, A, B, C) :- r(K, A), s(K, B), t(K, C).
        top(K, A) :- j(K, A, B, C).
        """,
        {"scheme": "multi-pass"},
        {("j", "multi-pass")},
    ),
    "finite-window": (TC, {"window": 10.0}, {("tc", "feeds tc")}),
    "win-move": (
        """
        win(X) :- move(X, Y), not win(Y).
        top(X, K) :- win(X), p(X, K).
        """,
        {"allow_local_nonrecursive": True},
        {("win", "negation")},
    ),
    "wildcard-negation": (
        """
        lone(X) :- n(X), not g(X, _).
        top(X, K) :- lone(X), p(X, K).
        """,
        {},
        {("lone", "negation")},
    ),
}


def mixed_pubs(name, seed):
    rng = random.Random(seed)
    pubs = stream_pubs(rng, ("p", "q"), 5)
    if name == "multi-pass":
        pubs += stream_pubs(rng, ("r0", "s", "t"), 4)
    elif name == "finite-window":
        pubs += edge_pubs(rng, 8, domain=5)
    elif name == "win-move":
        # A DAG: moves only go up, so win/lose is decided bottom-up.
        pubs += [("move", tuple(sorted(rng.sample(range(6), 2)))) for _ in range(8)]
        pubs += [("p", (x, "w")) for x in range(6)]
    else:
        pubs += [("n", (x,)) for x in range(5)]
        pubs += [("g", (rng.randrange(5), rng.randrange(3))) for _ in range(4)]
        pubs += [("p", (x, "w")) for x in range(5)]
    return pubs


class TestMixedPrograms:
    """A rule whose result depends on arrival order holds Theorem 3's
    delay, and so does whatever feeds it; the rest of the program
    streams beside it, exactly."""

    @pytest.mark.parametrize("name", sorted(MIXED))
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dels", [0, 4])
    def test_held_rules_named_and_the_rest_streams_exactly(self, name, seed, dels):
        program, kwargs, holds = MIXED[name]
        program = program + PAIR
        heads = parse_program(program).idb_predicates()
        _, pipelined = assert_exact(
            program, mixed_pubs(name, seed), heads, m=5, seed=seed, dels=dels,
            engine_kwargs=kwargs,
        )
        assert held(pipelined) == holds

    def test_multi_pass_beside_a_stream_under_loss(self):
        program, kwargs, _ = MIXED["multi-pass"]
        assert_exact(
            program + PAIR, mixed_pubs("multi-pass", 2), ("j", "top", "pair"),
            m=5, dels=4, engine_kwargs=kwargs, loss_rate=0.15, reliable=True,
        )

    def test_a_fully_held_program_runs_in_barrier_mode(self):
        engine = GPAEngine(
            parse_program(JOIN3), GridNetwork(4, seed=1),
            scheme="multi-pass", mode="pipelined",
        )
        assert engine.mode == "barrier"
        assert held(engine) == {("j", "multi-pass")}

    def test_finite_window_without_idb_consumption_streams(self):
        engine = GPAEngine(
            parse_program(JOIN2), GridNetwork(4, seed=1), window=10.0,
            mode="pipelined",
        )
        assert engine.mode == "pipelined"
        assert held(engine) == set()

    def test_barrier_mode_holds_every_rule(self):
        engine = GPAEngine(parse_program(TC), GridNetwork(3))
        assert set(engine.releases.values()) == {"barrier"}
        assert engine.mode == "barrier"

    def test_unknown_mode_rejected(self):
        with pytest.raises(PlanError, match="unknown evaluation mode"):
            GPAEngine(parse_program(JOIN2), GridNetwork(3), mode="turbo")


def test_derived_ids_leave_the_publish_sequence_alone():
    """A fact minted at a hash node takes no number from the node's
    publish counter, so a base tuple's id does not depend on what its
    node derived before — and a minted id never equals a base one."""
    net = GridNetwork(3, seed=1)
    engine = GPAEngine(parse_program("b(X) :- e(X, Y)."), net).install()
    engine.publish(0, "e", (1, 2))
    net.run_all()
    (home,) = {nid for nid, rt in engine.runtimes.items() if rt.derived}
    (fact,) = engine.runtimes[home].derived.values()
    assert fact.tuple_id.source == home and fact.tuple_id.seq < 0
    assert engine.publish(home, "e", (3, 4)).seq == 1


class TestObservability:
    @pytest.fixture
    def telemetry(self):
        was = obs.enabled()
        obs.enable()
        obs.reset()
        yield
        obs.reset()
        if not was:
            obs.disable()

    def test_release_counters(self, telemetry):
        program, heads, gen = WORKLOADS["join2"]
        run_mode(program, gen(random.Random(17)), "pipelined")
        verdicts = obs.REGISTRY.get("repro_coordfree_programs_total")
        assert verdicts.labels(verdict="stream").value == 1
        lat = obs.REGISTRY.get("repro_phase_latency_seconds")
        assert lat.labels(
            phase="join", strategy="pa", mode="pipelined"
        ).count > 0

    def test_held_rules_counted_by_reason(self, telemetry):
        GPAEngine(
            parse_program(TC + PAIR), GridNetwork(3), window=10.0,
            mode="pipelined",
        )
        verdicts = obs.REGISTRY.get("repro_coordfree_programs_total")
        assert verdicts.labels(verdict="feeds tc").value == 2
        assert verdicts.labels(verdict="stream").value == 1


# -- pipelined is exact on random programs ----------------------------------

#: Rule pool mixing monotone shapes, recursion, guarded and wildcard
#: negation and a 3-way join (multi-pass under that scheme); random
#: subsets, schemes and windows exercise every release.
RULE_POOL = [
    "a(X, Y) :- e(X, Y).",
    "a(X, Z) :- e(X, Y), a(Y, Z).",
    "b(X) :- e(X, Y).",
    "c(X, Y) :- e(X, Y), f(Y).",
    "d(X) :- f(X), not b(X).",
    "t(X, Z) :- a(X, Y), e(Y, Z), f(Z).",
    "k(X) :- f(X), not a(X, _).",
]


@settings(max_examples=40, deadline=None)
@given(
    picks=st.lists(
        st.integers(0, len(RULE_POOL) - 1), min_size=1, max_size=4,
        unique=True,
    ),
    edges=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        min_size=2, max_size=6,
    ),
    flags=st.lists(st.integers(0, 4), min_size=1, max_size=4),
    scheme=st.sampled_from(["one-pass", "multi-pass"]),
    window=st.sampled_from([1e9, 10.0]),
    dels=st.integers(0, 2),
    seed=st.integers(0, 11),
)
def test_pipelined_is_exact_on_random_programs(
    picks, edges, flags, scheme, window, dels, seed
):
    text = " ".join(RULE_POOL[i] for i in sorted(picks))
    program = parse_program(text)
    pubs = [("e", edge) for edge in edges] + [("f", (v,)) for v in flags]
    pubs = [(p, a) for p, a in pubs if p in program.edb_predicates()]
    engines = {
        mode: run_mode(
            text, pubs, mode, m=4, seed=seed, stagger=True,
            dels=min(dels, len(pubs)),
            engine_kwargs={"scheme": scheme, "window": window},
        )
        for mode in ("barrier", "pipelined")
    }
    for head in sorted(program.idb_predicates()):
        assert engines["pipelined"].rows(head) == engines["barrier"].rows(head)
    assert (
        engines["pipelined"].derivation_store()
        == engines["barrier"].derivation_store()
    )
