"""Tests for the interactive shell (driven through its line API)."""

import pytest

from repro.cli import Shell, run_file


@pytest.fixture
def shell():
    return Shell()


def feed(shell, *lines):
    return [shell.handle(line) for line in lines]


class TestStatements:
    def test_fact_and_query(self, shell):
        feed(shell, "par(a, b).")
        assert shell.handle("?- par(a, X).") == "par(a, b)"

    def test_rules_and_recursive_query(self, shell):
        feed(
            shell,
            "par(a, b).",
            "par(b, c).",
            "anc(X, Y) :- par(X, Y).",
            "anc(X, Z) :- par(X, Y), anc(Y, Z).",
        )
        out = shell.handle("?- anc(a, Z).")
        assert "anc(a, b)" in out and "anc(a, c)" in out

    def test_no_answers(self, shell):
        feed(shell, "par(a, b).")
        assert shell.handle("?- par(z, X).") == "no"

    def test_missing_dot(self, shell):
        assert "error" in shell.handle("par(a, b)")

    def test_parse_error_reported(self, shell):
        assert shell.handle("p(X) :- q(X) r(X).").startswith("error:")

    def test_blank_and_comments_ignored(self, shell):
        assert shell.handle("") == ""
        assert shell.handle("% comment") == ""


class TestCommands:
    def test_help(self, shell):
        assert ":rules" in shell.handle(":help")

    def test_rules_listing(self, shell):
        shell.handle("p(X) :- q(X).")
        assert "p(X) :- q(X)" in shell.handle(":rules")

    def test_facts_listing(self, shell):
        shell.handle("q(1).")
        assert "1" in shell.handle(":facts q")
        assert "(no r facts)" == shell.handle(":facts r")

    def test_eval_reports_counts(self, shell):
        feed(shell, "q(1).", "q(2).", "p(X) :- q(X).")
        assert "p: 2" in shell.handle(":eval")

    def test_classify(self, shell):
        feed(shell, "p(X) :- q(X).")
        out = shell.handle(":classify")
        assert out.splitlines() == ["nonrecursive", "p(X) :- q(X).  stream"]

    def test_classify_holds_an_aggregate(self, shell):
        feed(shell, "total(count(_)) :- obs(X).")
        out = shell.handle(":classify")
        assert out.splitlines()[-1].endswith("  hold (aggregation)")

    def test_classify_holds_the_negation_cone(self, shell):
        feed(shell, "reach(Y) :- move(X, Y).",
             "lose(X) :- move(X, Y), not reach(X).",
             "pair(A, B) :- p(A, K), q(B, K).")
        assert shell.handle(":classify").splitlines()[1:] == [
            "reach(Y) :- move(X, Y).  hold (feeds reach)",
            "lose(X) :- move(X, Y), not reach(X).  hold (negation)",
            "pair(A, B) :- p(A, K), q(B, K).  stream",
        ]

    def test_reset(self, shell):
        feed(shell, "q(1).", "p(X) :- q(X).")
        shell.handle(":reset")
        assert shell.handle("?- q(1).") == "no"

    def test_unknown_command(self, shell):
        assert "unknown command" in shell.handle(":frobnicate")

    def test_quit_raises_eof(self, shell):
        with pytest.raises(EOFError):
            shell.handle(":quit")

    def test_load(self, shell, tmp_path):
        path = tmp_path / "prog.dl"
        path.write_text("par(a, b).\nanc(X, Y) :- par(X, Y).\n")
        out = shell.handle(f":load {path}")
        assert "1 rules" in out and "1 facts" in out
        assert shell.handle("?- anc(a, X).") == "anc(a, b)"

    def test_serve_demo(self, shell):
        out = shell.handle(":serve 3 4")
        assert "served 3 tenants on a 4x4 grid" in out
        for tenant in ("t0", "t1", "t2"):
            assert tenant in out
        assert "results" in out and "msgs" in out
        assert "placement:" in out  # adaptive placement on by default

    def test_serve_demo_deterministic(self, shell):
        assert shell.handle(":serve 2 4") == Shell().handle(":serve 2 4")

    def test_serve_usage_on_bad_args(self, shell):
        assert "usage: :serve" in shell.handle(":serve many")
        assert "usage: :serve" in shell.handle(":serve 99")

    def test_faults_summary_table(self, shell):
        out = shell.handle(":faults churn 50 0.2 100 7")
        assert "80 events over [0.00, 100.00]" in out
        assert "kind" in out and "count" in out
        # 4 slots x round(0.2 * 50) victims, one crash + one recover each.
        assert "crash           40" in out
        assert "recover         40" in out

    def test_faults_is_deterministic(self, shell):
        args = ":faults churn 30 0.1 50 3 5"
        assert shell.handle(args) == Shell().handle(args)

    def test_faults_usage_on_bad_args(self, shell):
        assert "usage: :faults" in shell.handle(":faults")
        assert "usage: :faults" in shell.handle(":faults churn")
        assert "usage: :faults" in shell.handle(":faults churn a b c")
        assert "usage: :faults" in shell.handle(":faults storm 9 0.1 10")

    def test_faults_empty_schedule(self, shell):
        assert "empty schedule" in shell.handle(":faults churn 9 0.01 10")

    def test_faults_out_of_range_rate_reports_error(self, shell):
        assert "error:" in shell.handle(":faults churn 9 1.5 10")


class TestQueriesThroughEngines:
    def test_negation_query(self, shell):
        feed(
            shell,
            "n(1).", "n(2).", "bad(1).",
            "ok(X) :- n(X), not bad(X).",
        )
        assert shell.handle("?- ok(X).") == "ok(2)"

    def test_xy_program_falls_back_to_bottom_up(self, shell):
        feed(
            shell,
            "g(a, b).", "g(b, c).",
            "h(a, a, 0).",
            "hp(Y, D + 1) :- h(_, Y, Dp), D + 1 > Dp, h(_, X, D), g(X, Y).",
            "h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).",
        )
        out = shell.handle("?- h(X, c, D).")
        assert "h(b, c, 2)" in out

    def test_query_on_edb_without_rules(self, shell):
        shell.handle("q(5).")
        assert shell.handle("?- q(X).") == "q(5)"


class TestRunFile:
    def test_batch_mode(self, tmp_path):
        path = tmp_path / "prog.dl"
        path.write_text(
            "par(a, b). par(b, c).\n"
            "anc(X, Y) :- par(X, Y).\n"
            "anc(X, Z) :- par(X, Y), anc(Y, Z).\n"
        )
        blocks = run_file(str(path), ["anc(a, Z)"])
        assert any("anc(a, c)" in b for b in blocks)
