"""The XY stage driver fires each stage's rules on the stage frontier.

``ReferenceXY`` is the driver it replaced, kept here as the reference:
every rule of the component unrestricted over the whole database at
every stage, heads of other stages thrown away, re-fired until the stage
is quiet.  The frontier driver must leave the same rows *and* the same
derivation store, on the production executors and on the seed oracle.
"""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import eval as core_eval
from repro.core.errors import EvaluationError
from repro.core.eval import BottomUpEvaluator, fire_rule
from repro.core.parser import parse_program
from repro.core.plan import seed_engine
from repro.core.stratify import ProgramClass, classify

from .test_batch_exec import fixpoint


class ReferenceXY(BottomUpEvaluator):
    """Naive stage evaluation (the driver up to PR 14)."""

    def _evaluate_component(self, db, rules):
        priority = self.xy.priority
        rules = sorted(rules, key=lambda r: priority.get(r.head.predicate, 0))

        def staged_heads(rule):
            firings = fire_rule(rule, db, self.registry)
            stages = [self._stage_value(rule.head.predicate, head)
                      for head in firings.heads]
            return stages, firings

        pending = {stage for rule in rules for stage in staged_heads(rule)[0]}
        processed = set()
        while pending:
            stage = min(pending)
            pending.discard(stage)
            processed.add(stage)
            if len(processed) > core_eval._MAX_STAGES:
                raise EvaluationError("too many stages")
            grew = True
            while grew:
                grew = False
                for rule in rules:
                    stages, firings = staged_heads(rule)
                    pending.update(s for s in stages if s > stage)
                    firings = firings.restrict(lambda head: self._stage_value(
                        rule.head.predicate, head) == stage)
                    if self._absorb(db, rule, firings, {}):
                        grew = True


def assert_matches_reference(text, facts):
    assert classify(parse_program(text)).program_class \
        is ProgramClass.XY_STRATIFIED
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core_eval, "_MAX_STAGES", 200)
        reference = fixpoint(text, facts, evaluator=ReferenceXY)
        for executor in (nullcontext, seed_engine):
            assert fixpoint(
                text, facts, executor, evaluator=BottomUpEvaluator
            ) == reference
    return reference[0]


# -- generated programs -------------------------------------------------------

#: ``q`` rules; each reads ``p`` at a lower stage, so ``q`` sits in the
#: component and blocks ``p`` and ``r`` at its own stage.
Q_RULES = {
    # logicH's shape: a frontier literal beside a comparison-only one
    "frontier": "q(Y, D + {c}) :- p(Y, Dp), D + {c} > Dp, p(X, D), e(X, Y).",
    # comparison-only: the head stage is found by enumerating
    "comparison": "q(X, E) :- p(X, D), jump(D, E), E > D.",
    # the stage variable is bound outside the component: no frontier
    "shifted": "q(X, D + 2) :- a(X, D), p(X, D + 1).",
}
CONSTANT_Q_RULES = ["q(X, 2) :- a(X, _).", "q(X, 3) :- p(X, D), D < 3."]

nodes = st.integers(0, 4)
stages = st.sampled_from([0, 1, 2, 3, 5])
offsets = st.integers(1, 3)


@st.composite
def staged_programs(draw):
    c1 = draw(offsets)
    rules = [
        # p -> r -> w -> p is the cycle; q negates into it at equal stage.
        f"p(Y, D + {c1}) :- w(X, D), e(X, Y), D < 7, "
        f"not q(Y, D + {draw(st.integers(0, c1))}).",
        "r(X, D) :- p(X, D), not q(X, D).",
        f"w(Y, D + {draw(st.integers(0, 3))}) :- r(X, D), e(X, Y).",
        "p(X, S) :- start(X, S).",
    ]
    if draw(st.booleans()):
        c2 = draw(offsets)
        rules.append(
            f"p(Y, D + {c2}) :- p(X, D), e(X, Y), D < 7, not q(Y, D + {c2})."
        )
    kinds = draw(st.lists(st.sampled_from(sorted(Q_RULES)), min_size=1,
                          max_size=3, unique=True))
    rules += [Q_RULES[kind].format(c=draw(offsets)) for kind in kinds]
    rules += draw(st.lists(st.sampled_from(CONSTANT_Q_RULES), max_size=2,
                           unique=True))

    def facts(pred, args, **size):
        return [(pred, row) for row in draw(st.lists(args, unique=True, **size))]

    staged = st.tuples(nodes, stages)
    out = (
        facts("e", st.tuples(nodes, nodes), min_size=3, max_size=12)
        + facts("start", staged, min_size=1, max_size=3)
        + facts("a", staged, max_size=4)
        + facts("jump", st.tuples(stages, st.integers(1, 9)).filter(
            lambda row: row[0] < row[1]), max_size=4)
        # base facts of component predicates, at several stages
        + facts("p", staged, max_size=3) + facts("q", staged, max_size=3)
        + facts("w", staged, max_size=3)
    )
    float_stage = draw(st.sampled_from([None, 0.5, 2.0]))
    if float_stage is not None:
        out.append((draw(st.sampled_from(["start", "p", "w"])),
                    (draw(nodes), float_stage)))
    return "\n".join(rules), out


@settings(max_examples=120, deadline=None)
@given(staged_programs())
def test_generated_programs_match_the_reference(program):
    assert_matches_reference(*program)


# -- regressions ----------------------------------------------------------------


def test_frontier_of_base_facts():
    # p's frontier literal is a(X, D), and a(x, 0) is a base fact: no
    # stage ever "grows" it, yet it has to schedule p's stage 2.
    rows = assert_matches_reference(
        """
        a(x, 0).
        b(X, D + 1) :- a(X, D), not p(X, D + 1).
        p(X, D + 2) :- a(X, D), b(X, D + 1).
        a(X, D + 1) :- p(X, D), D < 6.
        """,
        [],
    )
    assert rows["a"] == {("x", 0), ("x", 3), ("x", 6)}
    assert rows["b"] == {("x", 1), ("x", 4), ("x", 7)}
    assert rows["p"] == {("x", 2), ("x", 5), ("x", 8)}


def test_stage_reached_only_through_a_comparison_only_rule():
    # q's rule has no frontier, and q precedes p within a stage: when it
    # fires at stage 6, p(n, 6) does not exist yet.  Stage 9 is found
    # only by enumerating the rule again on what stage 6 added.
    rows = assert_matches_reference(
        """
        p(n, 0).
        q(X, E) :- p(X, D), jump(D, E), E > D.
        p(X, D + 1) :- q(X, D), not q(X, D + 1).
        """,
        [("jump", (0, 5)), ("jump", (6, 9))],
    )
    assert rows["q"] == {("n", 5), ("n", 9)}
    assert rows["p"] == {("n", 0), ("n", 6), ("n", 10)}


def test_float_stage_beside_its_integer_twin():
    # 2.0 and 2 are one stage and one index bucket.
    rows = assert_matches_reference(
        """
        cnt(T + 1) :- cnt(T), T < 4, not stop(T + 1).
        stop(T + 1) :- cnt(T), bound(B), T + 1 > B.
        """,
        [("cnt", (0,)), ("cnt", (1.0,)), ("cnt", (0.5,)), ("bound", (3,))],
    )
    assert rows["cnt"] == {(0,), (1,), (2,), (3,), (0.5,), (1.5,), (2.5,)}


def test_base_row_too_short_to_have_a_stage():
    # The base scan of a frontier predicate skips a row of another arity.
    rows = assert_matches_reference(
        """
        h(a, a, 0).
        hp(Y, D + 1) :- h(_, Y, Dp), D + 1 > Dp, h(_, X, D), g(X, Y).
        h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
        """,
        [("g", ("a", "b")), ("g", ("b", "a")), ("h", ("stray",))],
    )
    assert rows["h"] == {("a", "a", 0), ("a", "b", 1), ("stray",)}


COUNTER = """
    cnt(0).
    cnt(T + 1) :- cnt(T), not stop(T + 1).
    stop(T + 1) :- cnt(T), bound(B), T + 1 > B.
"""


def test_max_stages_still_raises(monkeypatch):
    monkeypatch.setattr(core_eval, "_MAX_STAGES", 10)
    with pytest.raises(EvaluationError, match="exceeded 10 stages"):
        fixpoint(COUNTER, [("bound", (50,))], evaluator=BottomUpEvaluator)
    rows, _ = fixpoint(COUNTER, [("bound", (8,))], evaluator=BottomUpEvaluator)
    assert rows["cnt"] == {(t,) for t in range(9)}
