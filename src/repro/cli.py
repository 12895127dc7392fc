"""Interactive shell and command-line front end.

``python -m repro`` opens a small deductive-database shell::

    repro> par(a, b).
    repro> anc(X, Y) :- par(X, Y).
    repro> anc(X, Z) :- par(X, Y), anc(Y, Z).
    repro> ?- anc(a, Z).
    anc(a, b)

    repro> :classify
    nonrecursive ... etc

Non-interactive usage evaluates a program file and prints query answers::

    python -m repro program.dl --query "anc(a, Z)"
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.ast import Program
from .core.builtins import BuiltinRegistry, DEFAULT_REGISTRY
from .core.errors import ReproError
from .core.eval import Database, evaluate
from .core.parser import Parser, parse_atom, parse_program
from .core.stratify import classify, rule_releases

HELP = """\
Enter rules/facts ending with '.', queries as '?- goal.', or commands:
  :rules            list the current program
  :facts PRED       list stored facts for PRED
  :eval             bottom-up evaluate the whole program
  :classify         show the evaluation class + each rule's release
  :explain          show the evaluation plan (safety, strata, join order)
  :load FILE        load rules from a file
  :metrics [on|off|reset]  telemetry snapshot / toggle / zero counters
  :serve [N] [M]    run a multi-tenant serving demo (N tenants, MxM grid)
  :faults churn NODES RATE HORIZON [SEED] [SLOTS]
                    summarize a generated fault schedule (kind counts,
                    first/last timestamps)
  :reset            drop program and facts
  :help             this text
  :quit             leave the shell"""


class Shell:
    """The REPL engine, decoupled from the terminal for testability:
    feed lines to :meth:`handle` and collect the returned output."""

    def __init__(self, registry: Optional[BuiltinRegistry] = None):
        self.registry = registry or DEFAULT_REGISTRY
        self.program = Program()
        self.db = Database(self.registry)
        # The evaluated program over a copy of ``db``; ``db`` itself holds
        # only the stored facts, so a new fact can retract a derived row.
        self._view: Optional[Database] = None

    # -- public -----------------------------------------------------------

    def handle(self, line: str) -> str:
        """Process one input line; returns the printable response."""
        line = line.strip()
        if not line or line.startswith("%") or line.startswith("#"):
            return ""
        try:
            if line.startswith(":"):
                return self._command(line)
            if line.startswith("?-"):
                return self._query(line[2:].strip().rstrip("."))
            return self._statement(line)
        except ReproError as exc:
            return f"error: {exc}"

    # -- internals ------------------------------------------------------------

    def _command(self, line: str) -> str:
        parts = line.split(None, 1)
        cmd, arg = parts[0], (parts[1] if len(parts) > 1 else "")
        if cmd in (":quit", ":q", ":exit"):
            raise EOFError
        if cmd == ":help":
            return HELP
        if cmd == ":rules":
            return repr(self.program) or "(empty program)"
        if cmd == ":facts":
            pred = arg.strip()
            if not pred:
                return "usage: :facts PRED"
            db = self.db if self._view is None else self._view
            rows = sorted(map(str, db.rows(pred)))
            return "\n".join(rows) if rows else f"(no {pred} facts)"
        if cmd == ":eval":
            view = self._ensure_evaluated()
            idb = sorted(self.program.idb_predicates())
            counts = ", ".join(f"{p}: {view.count(p)}" for p in idb)
            return f"evaluated. {counts}" if idb else "evaluated."
        if cmd == ":classify":
            releases = rule_releases(self.program)
            lines = [classify(self.program).program_class.value]
            for rule in self.program.rules:
                why = releases[rule.rule_id]
                lines.append(f"{rule!r}  {'stream' if why is None else f'hold ({why})'}")
            return "\n".join(lines)
        if cmd == ":explain":
            from .core.explain import explain

            return explain(self.program)
        if cmd == ":load":
            with open(arg.strip()) as f:
                text = f.read()
            loaded = parse_program(text, self.registry)
            for rule in loaded.rules:
                self.program.add_rule(rule)
            for fact in loaded.facts:
                self.db.assert_atom(fact)
            self._view = None
            return f"loaded {len(loaded.rules)} rules, {len(loaded.facts)} facts"
        if cmd == ":metrics":
            return self._metrics(arg.strip())
        if cmd == ":serve":
            return self._serve(arg.strip())
        if cmd == ":faults":
            return self._faults(arg.strip())
        if cmd == ":reset":
            self.program = Program()
            self.db = Database(self.registry)
            self._view = None
            return "reset."
        return f"unknown command {cmd!r} (try :help)"

    def _metrics(self, arg: str) -> str:
        from . import obs

        if arg == "on":
            obs.enable()
            return "telemetry enabled."
        if arg == "off":
            obs.disable()
            return "telemetry disabled."
        if arg == "reset":
            obs.reset()
            return "telemetry reset."
        if arg:
            return "usage: :metrics [on|off|reset]"
        if not obs.enabled():
            return "telemetry is off (:metrics on, or set REPRO_TELEMETRY=1)"
        snapshot = obs.prometheus_snapshot().rstrip()
        return snapshot if snapshot else "(no metrics recorded yet)"

    def _faults(self, arg: str) -> str:
        from .net.faults import FaultSchedule

        usage = ":faults churn NODES RATE HORIZON [SEED] [SLOTS]"
        parts = arg.split()
        if not parts or parts[0] != "churn" or not 4 <= len(parts) <= 6:
            return f"usage: {usage}"
        try:
            nodes = int(parts[1])
            rate = float(parts[2])
            horizon = float(parts[3])
            seed = int(parts[4]) if len(parts) > 4 else 0
            slots = int(parts[5]) if len(parts) > 5 else 4
        except ValueError:
            return f"usage: {usage}"
        if nodes < 1 or horizon <= 0:
            return f"usage: {usage}  (NODES >= 1, HORIZON > 0)"
        try:
            schedule = FaultSchedule.random_churn(
                range(nodes), rate, horizon, seed, slots=slots
            )
        except ReproError as exc:
            return f"error: {exc}"
        summary = schedule.describe()
        if not summary["events"]:
            return "(empty schedule: rate rounds to zero victims)"
        lines = [
            f"{summary['events']} events over "
            f"[{summary['first']:.2f}, {summary['last']:.2f}]",
            f"{'kind':<12} {'count':>5} {'first':>8} {'last':>8}",
        ]
        for kind, entry in summary["kinds"].items():
            lines.append(
                f"{kind:<12} {entry['count']:>5} "
                f"{entry['first']:>8.2f} {entry['last']:>8.2f}"
            )
        return "\n".join(lines)

    def _serve(self, arg: str) -> str:
        import random

        from .net.network import GridNetwork
        from .serve import QueryServer

        parts = arg.split()
        try:
            tenants = int(parts[0]) if parts else 4
            grid = int(parts[1]) if len(parts) > 1 else 5
        except ValueError:
            return "usage: :serve [TENANTS] [GRID]"
        if not (1 <= tenants <= 16 and 2 <= grid <= 12):
            return "usage: :serve [TENANTS] [GRID]  (1-16 tenants, 2-12 grid)"

        network = GridNetwork(grid)
        server = QueryServer(network)
        rng = random.Random(0)
        program = "j(K, A, B) :- r(K, A), s(K, B)."
        for i in range(tenants):
            tenant = f"t{i}"
            server.admit(tenant, program, outputs=("j",))
            pubs = []
            for k in range(6):
                pubs.append((rng.randrange(len(network)), "r", (k % 3, f"a{k}")))
                pubs.append((rng.randrange(len(network)), "s", (k % 3, f"b{k}")))
            server.submit(tenant, pubs)
        server.run()

        report = server.report()
        lines = [
            f"served {tenants} tenants on a {grid}x{grid} grid: "
            f"{report['epochs']} epochs, makespan {report['makespan']:.2f}, "
            f"{network.metrics.total_messages} messages",
        ]
        for tenant in sorted(report["tenants"]):
            stats = report["tenants"][tenant]
            lines.append(
                f"  {tenant}: {stats['results']} results, "
                f"{stats['messages']} msgs, {stats['state']}"
            )
        if "migrations" in report:
            lines.append(
                f"placement: {report['migrations']} migrations, "
                f"cumulative imbalance "
                f"{network.metrics.load_imbalance(n_nodes=len(network)):.2f}"
            )
        return "\n".join(lines)

    def _statement(self, line: str) -> str:
        if not line.endswith("."):
            return "error: statements end with '.'"
        parser = Parser(line, self.registry)
        rule = parser.parse_rule()
        if rule.is_fact:
            self.db.assert_atom(rule.head)
            self._view = None
            return ""
        self.program.add_rule(rule)
        self._view = None
        return ""

    def _query(self, goal_text: str) -> str:
        goal = parse_atom(goal_text)
        db = self.db
        if goal.predicate in self.program.idb_predicates():
            db = self._ensure_evaluated()
        answers = self._filter_rows(db, goal)
        if not answers:
            return "no"
        lines = sorted(
            f"{goal.predicate}({', '.join(repr(a) for a in row)})"
            for row in answers
        )
        return "\n".join(lines)

    def _filter_rows(self, db: Database, goal):
        from .core.terms import Substitution
        from .core.unify import match_sequences

        rel = db.relation(goal.predicate)
        return {
            row for row in rel
            if match_sequences(goal.args, row, Substitution()) is not None
        }

    def _ensure_evaluated(self) -> Database:
        if self._view is None:
            self._view = evaluate(self.program, self.db.copy(), self.registry)
        return self._view


def run_file(path: str, queries: List[str]) -> List[str]:
    """Evaluate a program file and answer the given queries."""
    shell = Shell()
    out = [shell.handle(f":load {path}")]
    for query in queries:
        out.append(shell.handle(f"?- {query}"))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Deductive sensor-network framework shell"
    )
    parser.add_argument("file", nargs="?", help="program file to load")
    parser.add_argument(
        "--query", "-q", action="append", default=[],
        help="query to answer (repeatable); implies non-interactive mode",
    )
    args = parser.parse_args(argv)

    if args.file and args.query:
        for block in run_file(args.file, args.query):
            if block:
                print(block)
        return 0

    shell = Shell()
    if args.file:
        print(shell.handle(f":load {args.file}"))
    print("repro deductive shell — :help for commands")
    while True:
        try:
            line = input("repro> ")
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        try:
            output = shell.handle(line)
        except EOFError:
            return 0
        if output:
            print(output)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
