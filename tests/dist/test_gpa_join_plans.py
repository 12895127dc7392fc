"""The GPA message path: compiled join-region matching against the
interpretive join it replaced, and the lean frame path against the
attributes tests and the fault injector change mid-run."""

import pickle
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro import obs
from repro.core.builtins import eval_builtin, normalize_partial
from repro.core.errors import EvaluationError, ReproError
from repro.core.eval import Database, evaluate, ground_head
from repro.core.parser import parse_program
from repro.core.terms import Constant, FunctionTerm, Substitution, Variable, make_list
from repro.core.unify import match_sequences
from repro.dist import plans
from repro.dist.derived import FactRef, WireDerivation
from repro.dist.gpa import Candidate, GPAEngine, JoinToken, Partial
from repro.net.messages import Message
from repro.net.network import GridNetwork

# -- the interpretive join (commit fa33895), kept as the oracle -----------------
#
# A reference Partial carries a Substitution where production carries
# registers (the ``regs`` field; ``mask`` is unused), so sizes and dedup
# keys are the production ones.


def with_fact(used, idx, ref):
    """``used`` (one slot per positive subgoal) with ``ref`` in slot ``idx``."""
    return used[:idx] + (ref,) + used[idx + 1:]


def deferred(rp, occurrence, negated):
    """The positions of the trigger's subgoal its seed leaves to the
    complete match.  Which computed arguments wait is the compiler's
    decision (:meth:`CompiledPlan.seed`), read off it; this oracle
    checks what the join does with them."""
    return [pos for pos, _expr in rp._seed_step(occurrence, negated)[1] or ()]


def reference_seed(engine, rp, occurrence, trigger, negated):
    lit = rp.negative[occurrence] if negated else rp.positive[occurrence]
    later = deferred(rp, occurrence, negated)
    seed = match_sequences(
        tuple(Variable(f"?{pos}") if pos in later else normalize_partial(a, engine.registry)
              for pos, a in enumerate(lit.atom.args)),
        trigger.args,
        Substitution(),
    )
    if seed is None:
        return None
    check = (lit, later) if later else None
    if negated:
        shared = set(rp.head.variables())
        for other in rp.positive:
            shared.update(other.variables())
        for other in rp.builtins:
            shared.update(other.variables())
        for i, other in enumerate(rp.negative):
            if i != occurrence:
                shared.update(other.variables())
        seed = Substitution({v: t for v, t in seed.items() if v in shared})
        return Partial(seed, 0, (None,) * len(rp.positive), check)
    return Partial(seed, 0, with_fact((None,) * len(rp.positive), occurrence, trigger),
                   check)


def reference_holds(engine, check, subst, trigger):
    """Does the complete match ``subst`` give the deferred arguments of
    the trigger's subgoal the trigger's own values?"""
    lit, later = check
    for pos in later:
        try:
            value = normalize_partial(lit.atom.args[pos].substitute(subst), engine.registry)
        except EvaluationError:
            return False
        if match_sequences((value,), (trigger.args[pos],), Substitution()) is None:
            return False
    return True


def reference_visible(runtime, pred, token):
    win = runtime.windows.get(pred)
    if win is None:
        return []
    if token.retro:
        out = list(win)
    else:
        out = win.live_at(token.update_ts)
    if token.exclude_id is not None and pred == token.trigger.pred:
        out = [t for t in out if t.tuple_id != token.exclude_id]
    return out


def reference_blocked(runtime, token, cand):
    for pred, pattern in cand.neg_patterns:
        for tup in reference_visible(runtime, pred, token):
            if match_sequences(pattern, tup.args, Substitution()) is not None:
                return True
    return False


def reference_complete(engine, runtime, rp, token, partial, node):
    substs = [partial.regs]
    for lit in rp.builtins:
        next_substs = []
        for s in substs:
            try:
                next_substs.extend(eval_builtin(lit, s, engine.registry))
            except EvaluationError:
                continue
        substs = next_substs
        if not substs:
            return
    for subst in substs:
        try:
            head_args = ground_head(rp.rule, subst, engine.registry)
        except EvaluationError:
            continue
        if partial.check is not None and not reference_holds(
                engine, partial.check, subst, token.trigger):
            continue
        derivation = WireDerivation(rp.rule_id, partial.used)
        result_op = engine._result_op(token)
        stamp = token.stamp(engine.window_params.join_delay)
        neg_patterns = [
            (
                lit.predicate,
                tuple(
                    normalize_partial(a.substitute(subst), engine.registry)
                    for a in lit.atom.args
                ),
            )
            for lit in rp.negative
        ]
        if token.trigger_negated:
            if token.op == "ins":
                engine._emit(node, rp.head.predicate, head_args, derivation, "sub", stamp)
                continue
            cand = Candidate(head_args, derivation, neg_patterns)
            if reference_blocked(runtime, token, cand):
                continue
            token.candidates.append(cand)
        elif rp.negative:
            if result_op == "sub":
                engine._emit(node, rp.head.predicate, head_args, derivation, "sub", stamp)
                continue
            cand = Candidate(head_args, derivation, neg_patterns)
            if reference_blocked(runtime, token, cand):
                continue
            token.candidates.append(cand)
        else:
            if token.rule_id in engine._streamed_rules:
                engine.streamed_derivations += 1
            engine._emit(node, rp.head.predicate, head_args, derivation, result_op, stamp)


def reference_extend(engine, runtime, rp, token, node, allowed=None):
    """``GPAEngine._extend_partials`` as it unified per row: the pattern
    rebuilt per partial and subgoal, every visible tuple one-way matched,
    a Substitution copied per match."""
    seen = {p.used for p in token.partials}
    complete = []
    still_partial = []
    for p in token.partials:
        if not p.missing:
            complete.append(p)
        else:
            still_partial.append(p)
    token.partials = still_partial
    queue = list(token.partials)
    while queue:
        partial = queue.pop()
        for idx, lit in enumerate(rp.positive):
            if partial.used[idx] is not None:
                continue
            if allowed is not None and idx not in allowed:
                continue
            pattern = tuple(
                normalize_partial(a.substitute(partial.regs), engine.registry)
                for a in lit.atom.args
            )
            for tup in reference_visible(runtime, lit.predicate, token):
                if (
                    not token.trigger_negated
                    and token.op == "del"
                    and tup.tuple_id == token.trigger.tuple_id
                ):
                    continue
                bindings = match_sequences(pattern, tup.args, Substitution())
                if bindings is None:
                    continue
                subst = Substitution(partial.regs)
                subst.update(bindings)
                new = Partial(subst, 0, with_fact(
                    partial.used, idx, FactRef(lit.predicate, tup.args, tup.tuple_id)
                ), partial.check)
                if new.used in seen:
                    continue
                seen.add(new.used)
                if not new.missing:
                    complete.append(new)
                else:
                    queue.append(new)
                    token.partials.append(new)
    for partial in complete:
        reference_complete(engine, runtime, rp, token, partial, node)


def reference_extend_parked(engine, node, runtime, parked, tup):
    entry, partial = parked  # the token that parked it: read for its header
    rp = engine.plan.by_id[entry.rule_id]
    if not entry.retro and not tup.is_live_at(
        entry.update_ts, engine.window_params.window
    ):
        return
    if (
        entry.exclude_id is not None
        and tup.predicate == entry.trigger.pred
        and tup.tuple_id == entry.exclude_id
    ):
        return
    if entry.op == "del" and tup.tuple_id == entry.trigger.tuple_id:
        return
    extended = []
    for idx, lit in enumerate(rp.positive):
        if partial.used[idx] is not None or lit.predicate != tup.predicate:
            continue
        pattern = tuple(
            normalize_partial(a.substitute(partial.regs), engine.registry)
            for a in lit.atom.args
        )
        bindings = match_sequences(pattern, tup.args, Substitution())
        if bindings is None:
            continue
        subst = Substitution(partial.regs)
        subst.update(bindings)
        extended.append(Partial(subst, 0, with_fact(
            partial.used, idx, FactRef(tup.predicate, tup.args, tup.tuple_id)
        ), partial.check))
    if not extended:
        return
    done = not any(p.missing for p in extended)
    token = engine._tag(JoinToken(
        rule_id=entry.rule_id, op=entry.op, update_ts=entry.update_ts,
        trigger=entry.trigger, trigger_negated=False, partials=extended,
        candidates=[],
        path=[] if done else [n for n in entry.region if n != node.id],
        exclude_id=entry.exclude_id, region=list(entry.region),
        retro=entry.retro,
    ))
    token.refresh_size()
    node.local_deliver(token)


class ReferenceEngine(GPAEngine):
    """The production engine — phases, tokens, parking, derived tables —
    around the interpretive join."""

    def _seed(self, rp, occurrence, trigger, negated):
        return reference_seed(self, rp, occurrence, trigger, negated)

    def _extend_partials(self, runtime, rp, token, node, allowed=None):
        reference_extend(self, runtime, rp, token, node, allowed)

    def _extend_parked(self, node, runtime, entry, tup):
        reference_extend_parked(self, node, runtime, entry, tup)

    def _blocked_here(self, runtime, token, cand):
        return reference_blocked(runtime, token, cand)


# -- the grammar ----------------------------------------------------------------

ARITY = {"a": 2, "b": 2, "c": 3}
VARS = ("X", "Y", "Z", "W")
ONE_PLUS_ONE = FunctionTerm("+", [Constant(1), Constant(1)])


def weighted(*choices):
    """Pick a strategy by weight (one_of picks its branches evenly)."""
    pool = [strategy for weight, strategy in choices for _ in range(weight)]
    return st.integers(0, len(pool) - 1).flatmap(pool.__getitem__)


# Values small enough that random tuples join; 1.0 equals 1, "s" makes
# arithmetic and ordered comparisons raise, the last line is what
# publish() stores when handed a raw term: not normalized.
values = weighted(
    (16, st.integers(0, 1).map(Constant)),
    (3, st.sampled_from([Constant(2), Constant("s"), Constant(1.0), Constant(1.0)])),
    (2, st.integers(0, 1).map(lambda k: FunctionTerm("f", [Constant(k)]))),
    (1, st.lists(st.integers(0, 1).map(Constant), max_size=2).map(make_list)),
    (1, st.sampled_from([ONE_PLUS_ONE, FunctionTerm("f", [ONE_PLUS_ONE])])),
)


@st.composite
def facts(draw, pred):
    arity = ARITY[pred] + draw(weighted((14, st.just(0)), (1, st.sampled_from([-1, 1]))))
    return tuple(draw(values) for _ in range(arity))


@st.composite
def cases(draw):
    """(program, steps): one safe rule over a, b, c (2-4 positive
    subgoals), sometimes a second one that consumes its head, and
    publishes of its body predicates on a 3x3 grid (some retracted
    later), a second or a few milliseconds apart — the second kind lands
    the storage and join phases of different updates on top of each
    other, which is what parks partials in pipelined mode."""
    var = st.sampled_from(VARS)
    pattern_arg = weighted(
        (16, var),
        (3, st.sampled_from(["_", "_", "0", "1", "1.0", "s", "f(0)", "[0, 1]"])),
        (1, st.one_of(
            var.map(lambda v: f"f({v})"),
            st.tuples(var, var).map(lambda ht: f"[{ht[0]} | {ht[1]}]"),
            var.map(lambda v: f"{v} + 1"),
        )),
    )
    body, preds, bound = [], [], set()
    for _ in range(draw(weighted((6, st.just(2)), (3, st.just(3)), (1, st.just(4))))):
        pred = draw(st.sampled_from(sorted(ARITY)))
        args = [draw(pattern_arg) for _ in range(ARITY[pred])]
        if draw(st.integers(0, 7)) == 0:
            args[-1] = args[0]  # a variable repeated inside one subgoal
        body.append(f"{pred}({', '.join(args)})")
        preds.append(pred)
        bound.update(v for v in VARS if any(v in a for a in args))
    atoms = [(1, st.sampled_from(["0", "1", "2", "s"]))]
    if bound:
        bound_var = st.sampled_from(sorted(bound))
        atoms += [(8, bound_var), (2, bound_var.map(lambda v: f"{v} + 1"))]
    expr = weighted(*atoms)
    for _ in range(draw(weighted((3, st.just(0)), (2, st.just(1)), (1, st.just(2))))):
        op = draw(st.sampled_from(["<", "<=", ">=", "=", "!="]))
        negated = draw(st.sampled_from(["", "", "not "]))
        body.append(f"{negated}{draw(expr)} {op} {draw(expr)}")
    if draw(st.integers(0, 3)) == 0:
        body.append(f"N = {draw(expr)}")
        expr = weighted((4, expr), (1, st.just("N")))
    for _ in range(draw(weighted((3, st.just(0)), (2, st.just(1)), (1, st.just(2))))):
        pred = draw(st.sampled_from(sorted(ARITY)))
        # shared variables, and wildcards that must stay wildcards
        neg_arg = weighted((3, expr), (1, st.just("_")))
        args = [draw(neg_arg) for _ in range(ARITY[pred])]
        body.append(f"not {pred}({', '.join(args)})")
        preds.append(pred)
    draw(st.randoms(use_true_random=False)).shuffle(body)
    program = f"out({draw(expr)}, {draw(expr)}) :- {', '.join(body)}."
    if draw(st.integers(0, 3)) == 0:
        program += " top(X) :- out(X, Y), a(X, Y)."
        preds.append("a")
    steps = []
    for _ in range(draw(st.integers(3, 12))):
        pred = draw(st.sampled_from(preds))
        steps.append((
            draw(st.sampled_from([1.0, 0.004, 0.004, 0.0])),
            draw(st.integers(0, 8)), pred, draw(facts(pred)),
            draw(st.integers(0, 3)) == 0,  # retract it later
        ))
    return program, steps


def drive(engine_cls, program, steps, mode, scheme, seed):
    """Run one scenario; returns (ordered sends, rows, derivation store,
    exception type or None)."""
    net = GridNetwork(3, seed=seed)
    engine = engine_cls(program, net, mode=mode, scheme=scheme).install()
    sends = []

    def record(ev):
        if ev.event == "tx":
            inner = getattr(ev.message, "inner", ev.message)
            sends.append((inner.kind, ev.src, ev.dst, ev.message.dst,
                          ev.message.payload_symbols))

    net.radio.subscribe(record)
    raised = rows = None
    try:
        published = []
        for gap, node, pred, args, retract in steps:
            net.run_until(net.now + gap)
            tid = engine.publish(node, pred, args)
            if retract:
                published.append((node, pred, args, tid))
        net.run_until(net.now + 0.02)  # retractions overtake slow joins
        for node, pred, args, tid in published:
            engine.retract(node, pred, args, tid)
        net.run_all(max_events=200_000)
        rows = {pred: engine.rows(pred) for pred in ("out", "top")}
    except Exception as exc:  # say ValueError: [X | X] is no proper list
        raised = type(exc)
    return sends, rows, engine.derivation_store(), raised


class TestCompiledJoinRegion:
    @settings(
        max_examples=250, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        case=cases(),
        mode=st.sampled_from(["barrier", "pipelined"]),
        scheme=st.sampled_from(["one-pass", "one-pass", "multi-pass"]),
        seed=st.integers(0, 3),
    )
    def test_matches_interpretive_join(self, case, mode, scheme, seed):
        program, steps = case
        try:
            ReferenceEngine(program, GridNetwork(2))
        except ReproError:
            assume(False)  # the rule does not compile into a plan at all
        expected = drive(ReferenceEngine, program, steps, mode, scheme, seed)
        got = drive(GPAEngine, program, steps, mode, scheme, seed)
        assert got[3] == expected[3]
        assert got[0] == expected[0]
        assert got[1:3] == expected[1:3]

    @pytest.mark.parametrize("mode", ["barrier", "pipelined"])
    @pytest.mark.parametrize("program", [
        # the seed of a negated trigger binds only what the rule shares
        "out(X, Y) :- a(X, Y), not b(X, _).",
        "out(X, Y) :- a(X, Y), b(Y, Z), not c(X, _, Z), not b(Z, Z).",
        # structural subgoals, their variables read by later subgoals
        "out(X, T) :- a(f(X), [H | T]), b(X, H).",
        "out(H, Z + 1) :- b(X, H), a(f(X), [H | _]), c(X, f(H), Z).",
        # 1 beside 1.0: the stored spelling travels in the derivation
        "out(X, Y) :- a(X, Y), b(X, Y), c(1, X, 1.0).",
        # a built-in that raises on some rows, an assignment, a repeat
        "out(N, Y) :- a(X, Y), b(X, X), N = X + 1, Y < 2.",
        # computed arguments the seed of their own subgoal defers
        "out(X, Z) :- c(X, _, Z), b(Z - 1, X).",
        "out(X, Z) :- c(X, _, Z), not b(Z + 1, _), not a(X - 1, _).",
    ])
    def test_pinned_rules(self, program, mode):
        f = lambda *args: FunctionTerm("f", [Constant(a) for a in args])
        ints = lambda *ks: tuple(Constant(k) for k in ks)
        stored = {
            "a": [(f(0), make_list(ints(1, 2))), (f(1), make_list(ints(0))),
                  ints(1, 2), ints(0, 1), (Constant(1.0), Constant(1)),
                  (Constant("s"), Constant(0))],
            "b": [ints(0, 1), ints(1, 0), ints(1, 2), ints(1, 1), ints(2, 2),
                  (Constant("s"), Constant("s"))],
            "c": [(Constant(0), f(1), Constant(2)), ints(1, 1, 1), ints(1, 0, 2),
                  (Constant(1), Constant(1.0), Constant(1.0))],
        }
        steps = [
            (gap, (3 * i + j) % 9, pred, args, (i + j) % 4 == 3)
            for j, pred in enumerate(sorted(stored))
            for i, (args, gap) in enumerate(zip(stored[pred], [1.0, 0.004, 0.0] * 2))
        ]
        expected = drive(ReferenceEngine, program, steps, mode, "one-pass", 1)
        got = drive(GPAEngine, program, steps, mode, "one-pass", 1)
        assert got == expected
        assert got[3] is None and got[2]  # the cases do derive

    def _join_round(self, engine_cls=GPAEngine, **net_kwargs):
        net = GridNetwork(5, seed=4, **net_kwargs)
        engine = engine_cls("j(K, A, B) :- r(K, A), s(K, B).", net).install()
        for i in range(12):
            engine.publish((7 * i) % 25, "rs"[i % 2], (i % 3, f"v{i}"))
        return net, engine

    def test_flat_round_never_unifies(self, monkeypatch):
        """No silent fallback: a rule of flat subgoals never reaches
        match_sequences, a structural one is counted when it does."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return match_sequences(*args, **kwargs)

        # (repro.core.unify the attribute is the re-exported function)
        monkeypatch.setattr(sys.modules["repro.core.unify"], "match_sequences", counting)
        monkeypatch.setattr(plans, "match_sequences", counting)
        net, engine = self._join_round()
        net.run_all()
        # every pair is found twice, from the r side and from the s side
        assert len(engine.rows("j")) == 12 and engine.rows_matched == 24
        assert engine.rows_scanned == 72  # 6 partner replicas per token, met once
        assert calls == [] and engine.structural_steps == 0

        net = GridNetwork(3, seed=1)
        engine = GPAEngine("out(H) :- a([H | _]), b(H).", net).install()
        engine.publish(0, "a", (make_list([Constant(1), Constant(2)]),))
        engine.publish(4, "b", (1,))
        net.run_all()
        assert engine.rows("out") == {(1,)}
        assert calls and engine.structural_steps > 0

    def test_compiled_plan_pickles(self):
        net, engine = self._join_round()
        net.run_all()
        rp = engine.plan.rule_plans[0]
        assert rp._compiled  # steps and the conclusion were compiled
        copy = pickle.loads(pickle.dumps(engine.plan)).rule_plans[0]
        assert copy._compiled == rp._compiled
        regs = [Constant(1), None, None]
        for key, step in rp._compiled.items():
            if isinstance(key, tuple):
                assert plans.probe(copy.step(*key), regs, engine.registry) == (
                    plans.probe(step, regs, engine.registry)
                )

    def test_selectivity_histogram(self):
        def observations():
            net, _engine = self._join_round()
            net.run_all()
            hist = obs.REGISTRY.get("repro_join_selectivity")
            return {labels: h.count for labels, h in hist.series()}

        was = obs.enabled()
        try:
            obs.disable()
            obs.reset()
            assert not any(observations().values())
            obs.enable()
            assert observations()[("j#r0",)] > 0
        finally:
            obs.reset()
            if not was:
                obs.disable()


#: Programs with a computed argument in a body atom, and update
#: sequences that publish (True) or retract (False) one fact at a time:
#: ``b(2)`` last, first, and published then retracted.
COMPUTED = ["q(X) :- a(X), b(X + 1).", "p(X) :- a(X), not b(X + 1)."]
COMPUTED_ARRIVALS = {
    "b last": [(True, "a", (1,)), (True, "a", (2,)), (True, "b", (2,))],
    "b first": [(True, "b", (2,)), (True, "a", (1,)), (True, "a", (2,))],
    "b retracted": [(True, "b", (2,)), (True, "a", (1,)), (False, "b", (2,))],
}


@pytest.mark.parametrize("mode", ["barrier", "pipelined"])
@pytest.mark.parametrize("text", COMPUTED)
@pytest.mark.parametrize("arrival", sorted(COMPUTED_ARRIVALS))
def test_trigger_on_a_computed_argument(mode, text, arrival):
    """A trigger matching ``b(X + 1)`` launches its token: the rows are
    :func:`evaluate`'s whichever update arrives last."""
    net = GridNetwork(4, seed=3)
    engine = GPAEngine(text, net, strategy="pa", mode=mode).install()
    published, live = {}, set()
    for is_insert, pred, args in COMPUTED_ARRIVALS[arrival]:
        if is_insert:
            published[pred, args] = engine.publish(5, pred, args)
            live.add((pred, args))
        else:
            engine.retract(5, pred, args, published[pred, args])
            live.discard((pred, args))
        net.run_all()
    db = Database()
    for pred, args in live:
        db.assert_fact(pred, args)
    program = parse_program(text)
    evaluate(program, db)
    head = program.rules[0].head.predicate
    assert engine.rows(head) == db.rows(head)


class TestLeanFramePath:
    def _fingerprint(self, net, engine):
        metrics = net.metrics
        return (
            net.sim.events_processed, net.sim.queue_hwm,
            dict(metrics.tx_count), dict(metrics.rx_count),
            dict(metrics.tx_bytes), dict(metrics.rx_bytes),
            dict(metrics.category_tx), dict(metrics.category_bytes),
            dict(metrics.energy), metrics.dropped, metrics.acks,
            metrics.retries, metrics.dup_suppressed, metrics.retry_exhausted,
            net.sim.rng.getstate(), engine.rows("j"),
        )

    @pytest.mark.parametrize("net_kwargs", [
        {}, {"loss_rate": 0.2}, {"loss_rate": 0.1, "reliable": True},
        {"collisions": True}, {"battery_capacity": 900.0},
    ])
    def test_observer_changes_nothing(self, net_kwargs):
        """One path: a frame takes the same decisions and draws whether
        or not anyone listens."""
        join_round = TestCompiledJoinRegion()._join_round
        net, engine = join_round(**net_kwargs)
        net.run_all()
        watched_net, watched_engine = join_round(**net_kwargs)
        seen = []
        observer = watched_net.radio.subscribe(seen.append)
        watched_net.run_all()
        assert seen
        assert self._fingerprint(watched_net, watched_engine) == (
            self._fingerprint(net, engine)
        )
        watched_net.radio.unsubscribe(observer)
        del seen[:]
        watched_engine.publish(3, "r", (1, "late"))
        watched_net.run_all()
        assert not seen

    def test_radio_attributes_are_read_per_frame(self):
        """loss_rate, collisions and battery_capacity assigned after
        construction (tests and the fault injector do) take effect on
        the next frame."""
        net = GridNetwork(3, seed=2)
        got = []
        node = net.node(0)
        for n in net.nodes.values():
            n.register_handler("ping", lambda _node, msg: got.append(msg.tag))

        def ping(tag):
            msg = Message("ping")
            msg.tag = tag
            node.send(1, msg)
            net.run_all()

        ping("plain")
        assert got == ["plain"] and net.metrics.dropped == 0
        net.radio.loss_rate = 0.999999
        ping("lost")
        assert got == ["plain"] and net.metrics.dropped == 1
        net.radio.loss_rate = 0.0
        net.radio.battery_capacity = 0.0  # everyone is over budget already
        ping("last gasp")  # the sender pays, then dies; the receiver hears it
        assert got == ["plain", "last gasp"]
        assert not net.radio.is_alive(0) and net.radio.death_cause[0] == "energy"
        net.radio.battery_capacity = None
        net.radio.revive(0)
        net.radio.revive(1)
        net.radio.collisions = True
        for src in (0, 2):  # two senders, one receiver, one instant
            msg = Message("ping", payload_symbols=400)
            msg.tag = f"from {src}"
            net.node(src).send(1, msg)
        net.run_all()
        assert net.radio.collision_count == 1 and len(got) == 3
