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

    def test_rules_listing_keeps_head_aggregates(self, shell):
        rule = "c(G, count(X)) :- r(G, X)."
        feed(shell, rule, "r(a, 1).", "r(a, 2).")
        assert shell.handle(":rules") == rule
        # What :rules prints is a program the shell answers the same on.
        again = Shell()
        feed(again, shell.handle(":rules"), "r(a, 1).", "r(a, 2).")
        assert again.handle("?- c(G, N).") == shell.handle("?- c(G, N).") == "c(a, 2)"

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


#: One program per class the shell answers: clauses, goal, printed answers.
QUERIES = {
    "nonrecursive": (
        ["e(1, 2).", "e(2, 3).", "p(X, Z) :- e(X, Y), e(Y, Z)."],
        "p(X, Z)", "p(1, 3)",
    ),
    "positive-recursive": (
        ["par(a, b).", "par(b, c).", "anc(X, Y) :- par(X, Y).",
         "anc(X, Z) :- par(X, Y), anc(Y, Z)."],
        "anc(a, Z)", "anc(a, b)\nanc(a, c)",
    ),
    "stratified": (
        ["n(1).", "n(2).", "bad(1).", "ok(X) :- n(X), not bad(X)."],
        "ok(X)", "ok(2)",
    ),
    "xy-stratified": (
        ["g(a, b).", "g(b, c).", "h(a, a, 0).",
         "hp(Y, D + 1) :- h(_, Y, Dp), D + 1 > Dp, h(_, X, D), g(X, Y).",
         "h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1)."],
        "h(X, c, D)", "h(b, c, 2)",
    ),
    "aggregate": (
        ["r(a, 1).", "r(a, 2).", "r(b, 5).", "c(G, count(V)) :- r(G, V)."],
        "c(G, N)", "c(a, 2)\nc(b, 1)",
    ),
    "function-symbols": (
        ["start(0).", "chain(s(0), 1) :- start(0).",
         "chain(s(L), N + 1) :- chain(L, N), N < 3."],
        "chain(L, 3)", "chain(s(s(s(0))), 3)",
    ),
}


class TestQueriesThroughEngines:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_idb_query_evaluates_bottom_up(self, shell, name):
        clauses, goal, answers = QUERIES[name]
        feed(shell, *clauses)
        assert shell.handle(f"?- {goal}.") == answers

    @pytest.mark.parametrize("rule, goal, before, after", [
        ("ok(X) :- n(X), not bad(X).", "ok(X)", "ok(1)", "no"),
        ("c(count(X)) :- n(X), not bad(X).", "c(N)", "c(1)", "no"),
    ])
    def test_new_facts_retract_derived_answers(
        self, shell, tmp_path, rule, goal, before, after
    ):
        feed(shell, "n(1).", rule)
        assert shell.handle(f"?- {goal}.") == before
        shell.handle("bad(1).")
        assert shell.handle(f"?- {goal}.") == after
        # Stored facts are kept apart from what a query derived.
        assert shell.handle(":facts bad") == "(1,)"
        again = Shell()
        feed(again, "n(1).", rule)
        assert again.handle(f"?- {goal}.") == before
        path = tmp_path / "bad.dl"
        path.write_text("bad(1).\n")
        again.handle(f":load {path}")
        assert again.handle(f"?- {goal}.") == after

    def test_query_on_a_rejected_program_reports_the_error(self, shell):
        feed(shell, "move(a, b).", "win(X) :- move(X, Y), not win(Y).")
        assert "beyond XY-stratification" in shell.handle("?- win(X).")
        # A base predicate is read as stored: nothing is evaluated.
        assert shell.handle("?- move(X, Y).") == "move(a, b)"

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
