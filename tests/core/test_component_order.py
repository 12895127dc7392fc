"""The predicate-graph orders of ``core.stratify`` against networkx.

Component order feeds firing order, so ``components`` must give
networkx's ``topological_sort(condensation(graph))`` exactly, not just
some topological order; networkx is the oracle here only.
"""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.core.ast import RelLiteral
from repro.core.parser import parse_program
from repro.core.stratify import (
    _order_same_stage,
    components,
    dependency_graph,
    rule_releases,
)


@st.composite
def digraphs(draw, max_nodes=12):
    """Node names in a drawn order, edges (self-loops and repeats
    included) in a drawn order."""
    n = draw(st.integers(1, max_nodes))
    nodes = draw(st.permutations([f"p{i}" for i in range(n)]))
    edges = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                          max_size=3 * n))
    return nodes, edges


def _both(nodes, edges):
    graph = {node: {} for node in nodes}
    oracle = nx.DiGraph()
    oracle.add_nodes_from(nodes)
    for u, v in edges:
        graph[u][v] = False
        oracle.add_edge(u, v)
    return graph, oracle


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_components_follow_networkx_condensation_order(drawn):
    graph, oracle = _both(*drawn)
    condensation = nx.condensation(oracle)
    expected = [condensation.nodes[c]["members"] for c in nx.topological_sort(condensation)]
    assert components(graph) == expected


@settings(max_examples=300, deadline=None)
@given(digraphs(max_nodes=8))
def test_same_stage_order_is_networkx_topological_sort(drawn):
    nodes, edges = drawn
    _graph, oracle = _both(nodes, edges)
    try:
        expected = {p: i for i, p in enumerate(nx.topological_sort(oracle))}
    except nx.NetworkXUnfeasible:
        expected = None
    assert _order_same_stage(nodes, edges) == expected


@st.composite
def programs(draw):
    """Rules over p0..p5 reading base predicates b0, b1 too, some of
    them negated; the program need not be stratifiable."""
    heads = [f"p{i}" for i in range(6)]
    rules = []
    for _ in range(draw(st.integers(1, 8))):
        body = draw(st.lists(st.tuples(st.sampled_from(heads + ["b0", "b1"]), st.booleans()),
                             min_size=1, max_size=3))
        literals = [f"{'not ' if neg and i else ''}{pred}(X)" for i, (pred, neg) in enumerate(body)]
        rules.append(f"{draw(st.sampled_from(heads))}(X) :- {', '.join(literals)}.")
    return parse_program("\n".join(rules))


def _releases_by_ancestors(program, windowed):
    """``rule_releases`` for programs without aggregates or multi-pass
    rules, the feeding predicates found by ``nx.ancestors`` one
    sensitive predicate at a time in name order."""
    sensitive = set(windowed)
    held = {}
    for rule in program.rules:
        if rule.negative_literals():
            held[rule.rule_id] = "negation"
            sensitive.update(lit.predicate for lit in rule.body if isinstance(lit, RelLiteral))
    graph = nx.DiGraph()
    for u, row in dependency_graph(program).items():
        graph.add_node(u)
        graph.add_edges_from((u, v) for v in row)
    feeds = {pred: pred for pred in sensitive}
    for pred in sorted(sensitive):
        for upstream in nx.ancestors(graph, pred):
            feeds.setdefault(upstream, pred)
    return {
        rule.rule_id: held.get(rule.rule_id) or (
            f"feeds {feeds[rule.head.predicate]}" if rule.head.predicate in feeds else None
        )
        for rule in program.rules
    }


@settings(max_examples=200, deadline=None)
@given(programs(), st.sets(st.sampled_from(["p0", "p3"])))
def test_release_feeds_match_networkx_ancestors(program, windowed):
    windowed &= program.idb_predicates()  # derived streams, as GPAEngine passes
    assert rule_releases(program, windowed=windowed) == _releases_by_ancestors(program, windowed)
