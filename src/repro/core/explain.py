"""Plan explanation — a human-readable account of how a program will
be evaluated.

Surfaces what the analysis machinery decides silently: the safety
verdict, the program class, strata or stage arguments and per-rule join
order.  Used by the shell's ``:explain`` command and handy in tests and
notebooks.
"""

from __future__ import annotations

from typing import List

from .ast import BuiltinLiteral, Program, RelLiteral
from .errors import ProgramError, SafetyError
from .eval import order_body
from .safety import check_rule_safety
from .stratify import ProgramClass, classify
from .terms import Constant


def explain(program: Program) -> str:
    """Multi-line explanation of ``program``'s evaluation plan."""
    lines: List[str] = []
    lines.append(f"rules: {len(program.rules)}, facts: {len(program.facts)}")
    idb, edb = sorted(program.idb_predicates()), sorted(program.edb_predicates())
    lines.append(f"derived predicates (IDB): {', '.join(idb) or '(none)'}")
    lines.append(f"base streams (EDB): {', '.join(edb) or '(none)'}")

    unsafe = []
    for rule in program.rules:
        try:
            check_rule_safety(rule)
        except SafetyError as exc:
            unsafe.append(str(exc))
    if unsafe:
        lines.append("UNSAFE:")
        lines.extend(f"  {msg}" for msg in unsafe)
        return "\n".join(lines)
    lines.append("safety: ok")

    analysis = classify(program)
    lines.append(f"class: {analysis.program_class.value}")
    if analysis.strata is not None:
        for i, stratum in enumerate(analysis.strata):
            lines.append(f"  stratum {i}: {', '.join(sorted(stratum))}")
    if analysis.xy is not None:
        stages = ", ".join(
            f"{p}[arg {pos}]" for p, pos in sorted(analysis.xy.stage_position.items())
        )
        lines.append(f"  stage arguments: {stages}")
        order = sorted(analysis.xy.priority, key=analysis.xy.priority.get)
        lines.append(f"  per-stage order: {' < '.join(order)}")
        lines.append("  stage firing:")
        lines.extend(
            f"    {line}" for line in _stage_firing(program, analysis.xy)
        )
    if analysis.program_class is ProgramClass.LOCALLY_NONRECURSIVE_REQUIRED:
        lines.append(
            "  WARNING: only locally non-recursive executions are correct"
        )
        return "\n".join(lines)

    lines.append("join order:")
    for rule in program.rules:
        parts = []
        for lit in order_body(rule):
            if isinstance(lit, RelLiteral):
                parts.append(("not " if lit.negated else "") + lit.predicate)
            else:
                assert isinstance(lit, BuiltinLiteral)
                parts.append(f"[{lit.name}]")
        agg = " +agg" if rule.has_aggregates else ""
        lines.append(
            f"  r{rule.rule_id}: {rule.head.predicate} <- "
            f"{' , '.join(parts) or '(facts)'}{agg}"
        )
    return "\n".join(lines)


def _stage_firing(program: Program, xy) -> List[str]:
    """One line per rule of a staged component: its literals over the
    component with their stage relative to the head's, and what the
    stage driver fires it on."""
    out = []
    for rule in program.rules:
        if rule not in xy.offsets:
            continue
        frontier = xy.frontier(rule)
        parts = []
        for lit, k in xy.offsets[rule]:
            below = "<stage" if k is None else f"stage-{k}" if k else "stage"
            parts.append(
                ("not " if lit.negated else "") + f"{lit.predicate}[{below}]"
                + (" (frontier)" if frontier and lit is frontier[0] else "")
            )
        line = f"r{rule.rule_id}: {rule.head.predicate} <- {', '.join(parts)}"
        if frontier is None:
            head_stage = xy.stage_term(rule.head)
            line += ("; " if parts else "") + (
                f"at stage {head_stage!r} only"
                if isinstance(head_stage, Constant) else "unrestricted"
            )
        out.append(line)
    return out
