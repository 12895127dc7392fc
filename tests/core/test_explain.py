"""Tests for plan explanation."""

import pytest

from repro.core.explain import explain
from repro.core.parser import parse_program
from repro.cli import Shell

LOGICH = """
    h(a, a, 0).
    h(a, X, 1) :- g(a, X).
    hp(Y, D + 1) :- h(_, Y, Dp), D + 1 > Dp, h(_, X, D), g(X, Y).
    h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
"""


class TestExplain:
    def test_basic_sections(self):
        text = explain(parse_program("p(X) :- q(X), not r(X), X > 1."))
        assert "safety: ok" in text
        assert "class: nonrecursive" in text
        assert "stratum" in text
        assert "not r" in text and "[>]" in text

    def test_stratified_order(self):
        text = explain(parse_program("a(X) :- b(X), not c(X). c(X) :- d(X)."))
        lines = text.splitlines()
        strata = [l for l in lines if "stratum" in l]
        assert len(strata) >= 2
        assert any("c" in l for l in strata[:-1])  # c below a

    def test_xy_stage_arguments(self):
        text = explain(parse_program(LOGICH))
        assert "class: xy-stratified" in text
        assert "stage arguments" in text
        assert "hp < h" in text

    def test_xy_stage_firing_names_the_frontier_or_the_fallback(self):
        lines = explain(parse_program(LOGICH + """
            q(X, E) :- h(_, X, D), jump(D, E), E > D.
            h(X, X, D + 2) :- base(X, D), q(X, D + 1), not q(X, D + 2).
        """)).splitlines()
        firing = [l.strip() for l in lines[lines.index("  stage firing:") + 1:]]
        assert firing[:5] == [
            "r0: h <- at stage 1 only",
            "r1: hp <- h[<stage], h[stage-1] (frontier)",
            "r2: h <- h[stage-1] (frontier), not hp[stage]",
            "r3: q <- h[<stage]; unrestricted",
            # D is bound outside the component: q(X, D + 1) is no frontier
            "r4: h <- q[stage-1], not q[stage]; unrestricted",
        ]

    def test_unsafe_program_flagged(self):
        text = explain(parse_program("p(X, Y) :- q(X)."))
        assert "UNSAFE" in text

    def test_locally_nonrecursive_warning(self):
        text = explain(parse_program("w(X) :- m(X, Y), not w(Y)."))
        assert "locally non-recursive" in text or "WARNING" in text

    def test_aggregate_marked(self):
        text = explain(parse_program("c(S, count(_)) :- obs(S, V)."))
        assert "+agg" in text


class TestShellExplain:
    def test_explain_command(self):
        shell = Shell()
        shell.handle("p(X) :- q(X).")
        out = shell.handle(":explain")
        assert "class: nonrecursive" in out
