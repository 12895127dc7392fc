"""Magic-sets transformation.

The system architecture (Section V, Fig. 2) first optimizes the user's
logic program with magic-set transformations before compiling it for
distributed bottom-up evaluation: bottom-up evaluation of the rewritten
program only derives facts relevant to the query bindings, mimicking
the goal-directedness of top-down evaluation.

The implementation is the textbook supplementary-free variant with
left-to-right sideways information passing (SIP): each IDB body literal
is adorned with the bound/free status of its arguments, a *magic*
predicate collects the bound argument values, and every original rule
is guarded by the magic predicate of its head.

Negated and built-in literals pass bindings along but are never adorned
themselves (they must be fully bound by safety anyway).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .ast import Atom, BuiltinLiteral, Literal, Program, RelLiteral, Rule
from .errors import ProgramError
from .terms import Term, Variable

Adornment = str  # e.g. "bf" — one char per argument, 'b'ound or 'f'ree


def adorn(atom: Atom, bound_vars: Set[Variable]) -> Adornment:
    """Compute the adornment of ``atom`` given the currently bound vars."""
    chars = []
    for arg in atom.args:
        arg_vars = [v for v in arg.variables() if not v.is_anonymous]
        if arg.is_ground() or (arg_vars and all(v in bound_vars for v in arg_vars)):
            chars.append("b")
        else:
            chars.append("f")
    return "".join(chars)


def adorned_name(predicate: str, adornment: Adornment) -> str:
    return f"{predicate}__{adornment}"


def magic_name(predicate: str, adornment: Adornment) -> str:
    return f"m_{predicate}__{adornment}"


def _bound_args(atom: Atom, adornment: Adornment) -> Tuple[Term, ...]:
    return tuple(
        arg for arg, a in zip(atom.args, adornment) if a == "b"
    )


class MagicTransform:
    """Result of a magic-sets rewriting.

    ``program`` is the rewritten program (including the magic seed
    fact); ``query_predicate`` is the renamed adorned predicate holding
    the answers.
    """

    def __init__(self, program: Program, query_predicate: str, seed: Atom):
        self.program = program
        self.query_predicate = query_predicate
        self.seed = seed

    def __repr__(self) -> str:
        return f"MagicTransform(query={self.query_predicate!r})"


def magic_transform(program: Program, query: Atom) -> MagicTransform:
    """Rewrite ``program`` for the given query atom.

    The query's ground arguments determine the initial adornment; the
    rewriting then propagates adornments through IDB predicates.
    Aggregate rules are not supported (raise :class:`ProgramError`).
    """
    for rule in program.rules:
        if rule.has_aggregates:
            raise ProgramError("magic sets does not support aggregate rules")

    idb = program.idb_predicates()
    if query.predicate not in idb:
        raise ProgramError(
            f"query predicate {query.predicate!r} is not defined by any rule"
        )

    query_adornment = adorn(query, set())
    out = Program()
    done: Set[Tuple[str, Adornment]] = set()
    worklist: List[Tuple[str, Adornment]] = [(query.predicate, query_adornment)]

    while worklist:
        pred, adornment = worklist.pop()
        if (pred, adornment) in done:
            continue
        done.add((pred, adornment))
        for rule in program.rules_for(pred):
            _rewrite_rule(rule, adornment, idb, out, done, worklist)

    # Seed: the magic fact carrying the query's bound constants.
    seed = Atom(
        magic_name(query.predicate, query_adornment),
        _bound_args(query, query_adornment),
    )
    if seed.args and not seed.is_ground():
        raise ProgramError(f"query {query!r} has non-ground bound arguments")
    if seed.args:
        out.add_fact(seed)
    else:
        # Fully-free query: magic predicate is 0-ary "true".
        out.add_fact(Atom(magic_name(query.predicate, query_adornment), ()))
    for fact in program.facts:
        out.add_fact(fact)
    return MagicTransform(
        out, adorned_name(query.predicate, query_adornment), seed
    )


def _rewrite_rule(
    rule: Rule,
    head_adornment: Adornment,
    idb: Set[str],
    out: Program,
    done: Set[Tuple[str, Adornment]],
    worklist: List[Tuple[str, Adornment]],
) -> None:
    head = rule.head
    bound: Set[Variable] = set()
    for arg, a in zip(head.args, head_adornment):
        if a == "b":
            bound.update(v for v in arg.variables() if not v.is_anonymous)

    magic_head = Atom(
        magic_name(head.predicate, head_adornment),
        _bound_args(head, head_adornment),
    )
    new_body: List[Literal] = [RelLiteral(magic_head)]
    prefix: List[Literal] = [RelLiteral(magic_head)]

    for lit in rule.body:
        if isinstance(lit, BuiltinLiteral):
            new_body.append(lit)
            prefix.append(lit)
            bound.update(v for v in lit.variables() if not v.is_anonymous)
            continue
        assert isinstance(lit, RelLiteral)
        if lit.predicate not in idb or lit.negated:
            # EDB or negated subgoal: unchanged.  Negated IDB subgoals
            # keep their original (un-adorned) predicate, which the
            # caller must define separately; we conservatively requeue
            # the all-free adornment so the full relation is available.
            if lit.predicate in idb and lit.negated:
                free = "f" * lit.atom.arity
                if (lit.predicate, free) not in done:
                    worklist.append((lit.predicate, free))
                # The full (all-free) relation must be materialized for
                # the anti-join, so seed its magic predicate here.
                out.add_rule(
                    Rule(Atom(magic_name(lit.predicate, free), ()), list(prefix))
                )
                new_body.append(
                    RelLiteral(
                        Atom(adorned_name(lit.predicate, free), lit.atom.args),
                        negated=True,
                    )
                )
            else:
                new_body.append(lit)
            prefix.append(lit)
            bound.update(v for v in lit.variables() if not v.is_anonymous)
            continue

        lit_adornment = adorn(lit.atom, bound)
        if (lit.predicate, lit_adornment) not in done:
            worklist.append((lit.predicate, lit_adornment))
        bound_args = _bound_args(lit.atom, lit_adornment)
        if bound_args or lit_adornment == "":
            # Magic rule: the bound arguments reaching this subgoal.
            out.add_rule(
                Rule(
                    Atom(magic_name(lit.predicate, lit_adornment), bound_args),
                    list(prefix),
                )
            )
        else:
            # All-free subgoal: magic predicate is 0-ary.
            out.add_rule(
                Rule(Atom(magic_name(lit.predicate, lit_adornment), ()), list(prefix))
            )
        adorned_lit = RelLiteral(
            Atom(adorned_name(lit.predicate, lit_adornment), lit.atom.args)
        )
        new_body.append(adorned_lit)
        prefix.append(adorned_lit)
        bound.update(v for v in lit.variables() if not v.is_anonymous)

    out.add_rule(
        Rule(Atom(adorned_name(head.predicate, head_adornment), head.args), new_body)
    )


def magic_evaluate(program: Program, query: Atom, db, registry=None):
    """Convenience: rewrite for ``query``, evaluate bottom-up, and return
    the rows of the adorned query predicate matching the query pattern.

    ``db`` must contain the EDB facts; a fresh working copy is used so
    the input database is untouched.  Returns a set of value tuples.
    """
    from .builtins import DEFAULT_REGISTRY
    from .eval import BottomUpEvaluator
    from .unify import match_sequences
    from .terms import Substitution

    registry = registry or DEFAULT_REGISTRY
    transform = magic_transform(program, query)
    work = db.copy()
    BottomUpEvaluator(transform.program, registry).evaluate(work)
    rel = work.relation(transform.query_predicate)
    out = set()
    for row in rel:
        if match_sequences(query.args, row, Substitution()) is not None:
            out.add(row)
    return out
