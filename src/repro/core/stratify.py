"""Dependency analysis and stratification.

Three evaluation classes, in increasing generality (Section IV-C):

* **stratified** — no recursion through negation or aggregation; the
  standard perfect-model semantics applies, and the program can be
  evaluated stratum by stratum;
* **XY-stratified** — derived tables can be partitioned into sub-tables
  (by a *stage argument*) whose dependency graph is acyclic; the paper's
  ``logicH`` shortest-path-tree program is the canonical example;
* **locally non-recursive** — no cycles in the *tuple-level* derivation
  graph; a runtime property that the set-of-derivations evaluator checks
  while running.

The classifier below is static: it returns ``STRATIFIED`` when possible,
else attempts to find a stage-argument assignment proving
``XY_STRATIFIED``, else reports ``LOCALLY_NONRECURSIVE_REQUIRED`` (the
engine may still run such programs and verify local non-recursion at
runtime).
"""

from __future__ import annotations

import enum
import itertools
from typing import (
    Collection, Dict, Hashable, Iterable, List, Mapping, NamedTuple, Optional,
    Sequence, Set, Tuple, TypeVar,
)

from .ast import BuiltinLiteral, Program, RelLiteral, Rule
from .errors import StratificationError
from .terms import Constant, FunctionTerm, Term, Variable


class ProgramClass(enum.Enum):
    """Static classification of a program's recursion/negation structure."""

    NONRECURSIVE = "nonrecursive"
    POSITIVE_RECURSIVE = "positive-recursive"
    STRATIFIED = "stratified"
    XY_STRATIFIED = "xy-stratified"
    LOCALLY_NONRECURSIVE_REQUIRED = "locally-nonrecursive-required"


#: The predicate dependency graph: per predicate, the predicates it feeds
#: (and whether some such use is negative), in first-insertion order.
Graph = Dict[str, Dict[str, bool]]
Node = TypeVar("Node", bound=Hashable)


def dependency_graph(program: Program) -> Graph:
    """Predicate dependency graph.

    Edge ``Q -> P`` (``graph[Q][P]``) when a rule with head ``P`` uses
    ``Q`` in its body (data flows from Q to P).  Its value is True when
    some such use is negated or the rule aggregates (aggregation needs
    the full relation, like negation).
    """
    graph: Graph = {pred: {} for pred in program.predicates()}
    for rule in program.rules:
        head = rule.head.predicate
        for lit in rule.body:
            if isinstance(lit, RelLiteral):
                row = graph[lit.predicate]
                row[head] = row.get(head, False) or lit.negated or rule.has_aggregates
    return graph


def components(graph: Mapping[Node, Iterable[Node]]) -> List[Set[Node]]:
    """The strongly connected components of ``graph`` (every successor
    a key too, no node None), each before every component it feeds, in
    networkx's ``topological_sort(condensation(graph))`` order, which
    firing order follows: numbered by Nuutila's iterative Tarjan search
    (sources in graph order, rows in order), ordered by Kahn's
    generations over the condensation (its edges in graph order)."""
    preorder: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    comp_of: Dict[Node, int] = {}
    found: List[Set[Node]] = []
    stack: List[Node] = []
    pending = {v: iter(row) for v, row in graph.items()}
    for source in graph:
        queue = [] if source in preorder else [source]
        while queue:
            v = queue[-1]
            preorder.setdefault(v, len(preorder))
            w = next((w for w in pending[v] if w not in preorder), None)
            if w is not None:
                queue.append(w)
                continue
            queue.pop()
            lowlink[v] = min([preorder[v]] + [
                lowlink[w] if preorder[w] > preorder[v] else preorder[w]
                for w in graph[v] if w not in comp_of
            ])
            if lowlink[v] < preorder[v]:
                stack.append(v)
                continue
            comp = {v}
            while stack and preorder[stack[-1]] > preorder[v]:
                comp.add(stack.pop())
            comp_of.update(dict.fromkeys(comp, len(found)))
            found.append(comp)
    feeds: List[Dict[int, None]] = [{} for _ in found]
    indegree = [0] * len(found)
    for u, row in graph.items():
        for v in row:
            a, b = comp_of[u], comp_of[v]
            if a != b and b not in feeds[a]:
                feeds[a][b] = None
                indegree[b] += 1
    order = [c for c, degree in enumerate(indegree) if not degree]
    for c in order:  # appended while read: one generation after another
        for d in feeds[c]:
            indegree[d] -= 1
            if not indegree[d]:
                order.append(d)
    return [found[c] for c in order]


def cyclic(graph: Mapping[Node, Iterable[Node]], comps: List[Set[Node]]) -> List[Set[Node]]:
    """Those of ``graph``'s components ``comps`` that hold a cycle (a self-loop too)."""
    return [comp for comp in comps if any(comp.intersection(graph[v]) for v in comp)]


def _analyzed(program: Program) -> Tuple[Graph, List[Set[str]]]:
    graph = dependency_graph(program)
    return graph, components(graph)


def recursive_components(program: Program) -> List[Set[str]]:
    """Strongly connected components with more than one predicate, or a
    single predicate with a self-loop — the recursive cliques."""
    return cyclic(*_analyzed(program))


def is_recursive(program: Program) -> bool:
    return bool(recursive_components(program))


def stratify(program: Program) -> List[Set[str]]:
    """Return strata (lists of predicate sets, bottom-up) for a
    stratified program; raise :class:`StratificationError` when a
    negative edge lies inside a strongly connected component.
    """
    return _stratify(*_analyzed(program))


def _stratify(graph: Graph, comps: List[Set[str]]) -> List[Set[str]]:
    comp_of = {pred: i for i, comp in enumerate(comps) for pred in comp}
    for u, row in graph.items():
        for v, negative in row.items():
            if negative and comp_of[u] == comp_of[v]:
                raise StratificationError(
                    f"negation through recursion between {u!r} and {v!r}: "
                    "program is not stratified"
                )
    # Longest-path layering over the condensation (``comps`` in order)
    # gives minimal strata: a predicate's stratum exceeds that of any
    # predicate it depends on negatively, and is at least that of
    # positive dependencies.
    level = [0] * len(comps)
    for i, comp in enumerate(comps):
        for u in comp:
            for v, negative in graph[u].items():
                j = comp_of[v]
                if j != i:
                    level[j] = max(level[j], level[i] + negative)
    strata: Dict[int, Set[str]] = {}
    for i, comp in enumerate(comps):
        strata.setdefault(level[i], set()).update(comp)
    return [strata[i] for i in sorted(strata)]


# ---------------------------------------------------------------------------
# XY-stratification
# ---------------------------------------------------------------------------


#: Per rule of a staged component, its body literals over the component
#: with their stage offset below the head (see :class:`XYStratification`).
Offsets = Dict[Rule, List[Tuple[RelLiteral, Optional[int]]]]


class XYStratification(NamedTuple):
    """Witness that a program is XY-stratified.

    ``stage_position`` maps each recursive predicate to the argument
    position acting as its stage; ``priority`` orders predicates *within*
    a stage (lower priority evaluates first), e.g. ``H'`` before ``H`` in
    the paper's logicH program.  ``offsets`` maps each rule of a staged
    component to its ``(body literal, k)`` pairs over the component's
    predicates: the literal sits a constant ``k >= 0`` stages below the
    head (``V + b`` against ``V + c``, ``k = c - b``), or ``None`` when
    only a comparison subgoal proves it lower.
    """

    stage_position: Dict[str, int]
    priority: Dict[str, int]
    offsets: Offsets

    def stage_term(self, rule_head_or_lit) -> Optional[Term]:
        pred = rule_head_or_lit.predicate
        pos = self.stage_position.get(pred)
        if pos is None:
            return None
        atom = getattr(rule_head_or_lit, "atom", rule_head_or_lit)
        return atom.args[pos]

    def frontier(self, rule: Rule) -> Optional[Tuple[RelLiteral, int]]:
        """The literal the stage driver restricts to one stage's rows
        when it fires ``rule``: the first positive literal a constant
        ``k`` below the head whose stage argument is the bare stage
        variable — a row at stage ``t`` then yields heads at exactly
        ``t + k``, whatever the number type.  ``None``: no such literal,
        the rule fires unrestricted."""
        for lit, k in self.offsets.get(rule, ()):
            if k is not None and not lit.negated and isinstance(
                self.stage_term(lit), Variable
            ):
                return lit, k
        return None


def _stage_offset(head_term: Term, body_term: Term) -> Optional[int]:
    """How many stages the body stage term sits below the head's, when
    that is a constant: 0 when syntactically equal, ``c - b`` when the
    head term is ``V + c`` and the body term ``V + b`` with ``b <= c``;
    ``None`` when unprovable."""
    if body_term == head_term:
        return 0
    base, inc = _split_increment(head_term)
    bbase, binc = _split_increment(body_term)
    if base is not None and base == bbase and binc <= inc:
        return inc - binc
    return None


def _split_increment(term: Term) -> Tuple[Optional[Term], Optional[int]]:
    """Decompose ``V + c`` / ``V`` into (V, c); (None, None) otherwise."""
    if isinstance(term, Variable):
        return term, 0
    if (
        isinstance(term, FunctionTerm)
        and term.functor == "+"
        and term.arity == 2
        and isinstance(term.args[1], Constant)
        and isinstance(term.args[1].value, int)
    ):
        return term.args[0], term.args[1].value
    return None, None


def _is_number(term: Term) -> bool:
    return isinstance(term, Constant) and isinstance(term.value, (int, float))


def _body_implies_lower(rule: Rule, head_stage: Term, body_stage: Term) -> bool:
    """True when the body stage is provably below the head stage without
    a constant offset: two numeric constants, or a comparison subgoal,
    e.g. ``(d+1) > d'`` in the logicH program."""
    if (
        _is_number(body_stage) and _is_number(head_stage)
        and body_stage.value < head_stage.value
    ):
        return True
    for lit in rule.builtin_literals():
        if lit.negated or len(lit.args) != 2:
            continue
        left, right = lit.args
        if lit.name == ">" and left == head_stage and right == body_stage:
            return True
        if lit.name == "<" and left == body_stage and right == head_stage:
            return True
        if lit.name == ">=" and left == head_stage and right == body_stage:
            return False  # >= is not strict
    return False


def find_xy_stratification(program: Program) -> Optional[XYStratification]:
    """Search for a stage-argument assignment proving XY-stratification.

    For each recursive component containing a negative edge, every
    candidate combination of stage positions is checked (components and
    arities are small in practice, so the product search is cheap).
    """
    return _find_xy(program, *_analyzed(program))


def _find_xy(program: Program, graph: Graph,
             comps: List[Set[str]]) -> Optional[XYStratification]:
    arities = {p: max(a) for p, a in program.arities().items()}
    witness: Tuple[Dict[str, int], Dict[str, int], Offsets] = ({}, {}, {})
    for comp in cyclic(graph, comps):
        if not any(graph[u].get(v) for u in comp for v in comp):
            continue  # plain positive recursion needs no stage argument
        assignment = _solve_component(program, comp, arities)
        if assignment is None:
            return None
        for found, part in zip(witness, assignment):
            found.update(part)
    return XYStratification(*witness)


def _solve_component(
    program: Program, comp: Set[str], arities: Dict[str, int]
) -> Optional[Tuple[Dict[str, int], Dict[str, int], Offsets]]:
    preds = sorted(comp)
    rules = [r for r in program.rules if r.head.predicate in comp]
    choices = [range(arities[p]) for p in preds]
    for combo in itertools.product(*choices):
        positions = dict(zip(preds, combo))
        offsets = _check_assignment(rules, comp, positions)
        if offsets is None:
            continue
        # Dependencies at equal stage must form an acyclic per-stage order.
        prio = _order_same_stage(preds, [
            (lit.predicate, rule.head.predicate)
            for rule, literals in offsets.items()
            for lit, k in literals if k == 0
        ])
        if prio is not None:
            return positions, prio, offsets
    return None


def _check_assignment(
    rules: Sequence[Rule],
    comp: Set[str],
    positions: Dict[str, int],
) -> Optional[Offsets]:
    """Check one stage-position assignment: the offsets it gives, or
    None when some literal cannot be proved at or below its head's
    stage."""
    offsets: Offsets = {}
    for rule in rules:
        head_pos = positions[rule.head.predicate]
        if head_pos >= rule.head.arity:
            return None
        head_stage = rule.head.args[head_pos]
        literals = offsets[rule] = []
        for lit in rule.body:
            if not isinstance(lit, RelLiteral) or lit.predicate not in comp:
                continue
            body_pos = positions[lit.predicate]
            if body_pos >= lit.atom.arity:
                return None
            body_stage = lit.atom.args[body_pos]
            k = _stage_offset(head_stage, body_stage)
            if k is None and not _body_implies_lower(rule, head_stage, body_stage):
                return None
            literals.append((lit, k))
    return offsets


def _order_same_stage(
    preds: Sequence[str], edges: List[Tuple[str, str]]
) -> Optional[Dict[str, int]]:
    """Each predicate's place in a topological order of ``edges`` over
    ``preds``, or None when they close a cycle (a self-loop included)."""
    graph: Graph = {p: {} for p in preds}
    for u, v in edges:
        graph[u][v] = False
    order = components(graph)
    if cyclic(graph, order):
        return None
    return {p: i for i, (p,) in enumerate(order)}


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class Analysis(NamedTuple):
    """Full static analysis result for a program: its class, strata or XY
    witness, and its predicate graph's :func:`components` in firing order."""

    program_class: ProgramClass
    strata: Optional[List[Set[str]]]
    xy: Optional[XYStratification]
    components: List[Set[str]]


def classify(program: Program) -> Analysis:
    """Classify ``program`` into one of :class:`ProgramClass`."""
    graph, comps = _analyzed(program)
    try:
        strata = _stratify(graph, comps)
    except StratificationError:
        xy = _find_xy(program, graph, comps)
        cls = (ProgramClass.XY_STRATIFIED if xy is not None
               else ProgramClass.LOCALLY_NONRECURSIVE_REQUIRED)
        return Analysis(cls, None, xy, comps)
    if not cyclic(graph, comps):
        cls = ProgramClass.NONRECURSIVE
    elif any(rule.negative_literals() for rule in program.rules):
        cls = ProgramClass.STRATIFIED
    else:
        cls = ProgramClass.POSITIVE_RECURSIVE
    return Analysis(cls, strata, None, comps)


# ---------------------------------------------------------------------------
# Release: which rules may stream (CALM / win-move analysis)
# ---------------------------------------------------------------------------

#: Built-ins whose truth can flip when facts disappear (they observe the
#: *absence* or the *aggregate state* of a relation rather than a single
#: binding).  The stock registry has none — every comparison and
#: arithmetic built-in is a pure function of its bound arguments, hence
#: monotone — but deployments registering e.g. a ``missing/1`` probe add
#: its name here so :func:`rule_releases` holds the rules calling it.
NONMONOTONE_BUILTINS: Set[str] = set()


def rule_releases(
    program: Program,
    mode: str = "pipelined",
    multi_pass: Collection[int] = (),
    windowed: Collection[str] = (),
) -> Dict[int, Optional[str]]:
    """Decide, per rule (by ``rule_id``), whether it may stream — launch
    its joins in the causal chain of the triggering store — or must keep
    Theorem 3's tau_s + tau_c delay.  None means it streams; otherwise
    the value says why it holds.

    ``mode="barrier"`` holds every rule (``"barrier"``).  Otherwise a
    rule holds when its own result depends on arrival order: it negates
    (``"negation"``), aggregates (``"aggregation"``), calls a
    :data:`NONMONOTONE_BUILTINS` member (``"nonmonotone-builtin"``) or is
    one of the ``multi_pass`` rules, which join one stream per traversal
    in a fixed order (``"multi-pass"``).  The body predicates of the
    first three are *sensitive*: the anti-join's correctness bounds when
    a blocker is placed relative to its generation time, so nothing
    feeding it may move generations earlier.  ``windowed`` predicates
    (derived streams re-consumed under a finite window, whose edges are
    measured against generation stamps) are sensitive too.  A rule whose
    head is sensitive, or an ancestor of a sensitive predicate, holds
    with ``"feeds <pred>"``.  Every other rule streams — the monotone
    fragment outside the negation cone, as Zinn et al.'s "Win-Move is
    Coordination-Free (Sometimes)" locates coordination.
    """
    if mode == "barrier":
        return {rule.rule_id: "barrier" for rule in program.rules}
    sensitive = set(windowed)
    releases: Dict[int, Optional[str]] = {}
    for rule in program.rules:
        if rule.negative_literals():
            why = "negation"
        elif rule.has_aggregates:
            why = "aggregation"
        elif any(lit.name in NONMONOTONE_BUILTINS for lit in rule.builtin_literals()):
            why = "nonmonotone-builtin"
        else:
            releases[rule.rule_id] = "multi-pass" if rule.rule_id in multi_pass else None
            continue
        releases[rule.rule_id] = why
        sensitive.update(lit.predicate for lit in rule.body if isinstance(lit, RelLiteral))
    # The sensitive predicates each predicate reaches, sinks first: a
    # component reaches its own sensitive members and what it feeds.
    graph, comps = _analyzed(program)
    reach: Dict[str, Set[str]] = {}
    for comp in reversed(comps):
        below = (comp & sensitive).union(
            *(reach.get(v, ()) for u in comp for v in graph[u])
        )
        reach.update(dict.fromkeys(comp, below))
    for rule in program.rules:
        head = rule.head.predicate
        fed = head if head in sensitive else min(reach[head], default=None)
        if releases[rule.rule_id] is None and fed is not None:
            releases[rule.rule_id] = f"feeds {fed}"
    return releases
