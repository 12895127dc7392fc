"""Tests for the localized engine: shortest-path trees (Example 3)."""

import pickle
from unittest import mock

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import obs
from repro.core.ast import Atom, Program, RelLiteral, Rule
from repro.core.builtins import eval_builtin, normalize_partial
from repro.core.columnar import GLOBAL_INTERNER
from repro.core.derivations import fact_ref
from repro.core.errors import EvaluationError, PlanError, ProgramError
from repro.core.eval import Database, evaluate, ground_head
from repro.core.plan import GLOBAL_PLAN_CACHE
from repro.core.terms import Constant, FunctionTerm, Substitution, make_list
from repro.core.unify import match_sequences
from repro.dist.baselines import ProceduralBFS
from repro.dist import localized
from repro.dist.derived import ResultMsg
from repro.dist.plans import delta_join
from repro.dist.localized import (
    LocalizedEngine,
    Placement,
    _interned,
    build_sptree,
    logich_placements,
    logich_program,
    logicj_placements,
    logicj_program,
    visible_rows,
)
from repro.dist.routing_app import build_routing
from repro.net.network import GridNetwork, RandomNetwork


def bfs_depths(net, root):
    return nx.single_source_shortest_path_length(nx.Graph(net.topology.adjacency), root)


def expected_h(net, root):
    depths = bfs_depths(net, root)
    rows = {
        (x, y, depths[y])
        for y in depths if y != root
        for x in net.topology.neighbors(y)
        if depths[x] == depths[y] - 1
    }
    rows.add((root, root, 0))
    return rows


def expected_j(net, root):
    return set(bfs_depths(net, root).items())


def stale_replicas(engine, pred):
    """Replica rows of ``pred`` that their home does not show."""
    placement = engine.placements[pred]
    return [
        (node_id, args) for node_id, runtime in engine.runtimes.items()
        for args in runtime.tables.get(pred, ())
        if args not in engine.runtimes[
            placement.primary_node(args, engine.registry)
        ].tables.get(pred, {})
    ]


#: Grids where, applied in arrival order, a retransmitted replica add
#: behind its sub (or a sub behind the next add) left stale replicas:
#: every logicJ cell, and logicH on (3, 4), (4, 4) and (4, 5).
LOSSY_CELLS = [(3, 0), (3, 1), (3, 4), (4, 2), (4, 4), (4, 5)]


def run_lossy(variant, m, seed):
    net = GridNetwork(m, seed=seed, loss_rate=0.2, reliable=True)
    eng, pred = build_sptree(net, root=0, variant=variant)
    net.run_all()
    assert stale_replicas(eng, pred) == []
    return eng, net


class TestLogicH:
    @pytest.mark.parametrize("m,root", [(4, 0), (5, 12), (6, 35)])
    def test_grid_bfs_edges(self, m, root):
        net = GridNetwork(m, seed=root)
        eng, pred = build_sptree(net, root=root, variant="h")
        net.run_all()
        assert visible_rows(eng, "h") == expected_h(net, root)

    def test_random_topology(self):
        net = RandomNetwork(20, radius=3.5, seed=21)
        root = net.topology.node_ids[0]
        eng, _ = build_sptree(net, root=root, variant="h")
        net.run_all()
        assert visible_rows(eng, "h") == expected_h(net, root)

    def test_depths_unique_per_node(self):
        net = GridNetwork(5, seed=1)
        eng, _ = build_sptree(net, root=0, variant="h")
        net.run_all()
        depth_of = {}
        for (_x, y, d) in visible_rows(eng, "h"):
            depth_of.setdefault(y, set()).add(d)
        assert all(len(ds) == 1 for ds in depth_of.values())

    @pytest.mark.parametrize("m,variant", [(6, "h"), (8, "h"), (14, "j")])
    def test_memory_is_local(self, m, variant):
        """Section V: each node stores O(degree) tuples — at most
        4 * degree + 4 besides its edges, counting everything resident:
        visible rows, the ledger's invisible facts and its tombstones."""
        net = GridNetwork(m, seed=2)
        eng, _ = build_sptree(net, root=0, variant=variant)
        net.run_all()
        report = eng.memory_report()
        for node_id, runtime in eng.runtimes.items():
            degree = len(net.topology.neighbors(node_id))
            non_edge = report[node_id] - len(runtime.tables["g"])
            assert non_edge <= 4 * degree + 4

    def test_memory_report(self):
        net = GridNetwork(4, seed=2)
        eng, _ = build_sptree(net, root=0, variant="j")
        net.run_all()
        report = eng.memory_report()
        assert set(report) == set(net.topology.node_ids)
        assert all(v > 0 for v in report.values())  # edges at least

    def test_memory_report_counts_the_ledger(self):
        """A placed fact that is not visible, and a tombstone, are
        resident too: 112 such facts on 8x8 logicH."""
        net = GridNetwork(8, seed=2)
        eng, _ = build_sptree(net, root=0, variant="h")
        net.run_all()
        rows = {
            nid: sum(len(t) for t in rt.tables.values())
            for nid, rt in eng.runtimes.items()
        }
        ledger = {
            nid: sum(not f.visible for f in rt.placed.values()) + rt.placed.tombstones()
            for nid, rt in eng.runtimes.items()
        }
        assert sum(ledger.values()) == 112
        assert eng.memory_report() == {nid: rows[nid] + ledger[nid] for nid in rows}

    @pytest.mark.parametrize("m,seed", LOSSY_CELLS)
    def test_lossy_links_with_retransmission(self, m, seed):
        eng, net = run_lossy("h", m, seed)
        assert visible_rows(eng, "h") == expected_h(net, 0)


def test_seeded_terms_are_the_interners_unless_spelled_otherwise():
    """A seeded value is stored as the interner's own term object; one
    the interner first met in another spelling keeps its own, so a node
    id stays an int (a placement attribute must be one) and still
    shares its id."""
    term, tid = _interned(987655)
    assert term is GLOBAL_INTERNER.term(tid)
    GLOBAL_INTERNER.intern(Constant(987654.0))
    term, tid = _interned(987654)
    assert term.value.__class__ is int
    assert tid == GLOBAL_INTERNER.get(Constant(987654.0))


class TestLogicJ:
    @pytest.mark.parametrize("m,root", [(4, 0), (5, 12)])
    def test_grid_depths(self, m, root):
        net = GridNetwork(m, seed=root)
        eng, pred = build_sptree(net, root=root, variant="j")
        net.run_all()
        assert visible_rows(eng, "j") == expected_j(net, root)

    def test_random_topology(self):
        net = RandomNetwork(20, radius=3.5, seed=22)
        root = net.topology.node_ids[0]
        eng, _ = build_sptree(net, root=root, variant="j")
        net.run_all()
        assert visible_rows(eng, "j") == expected_j(net, root)

    @pytest.mark.parametrize("m,seed", LOSSY_CELLS)
    def test_lossy_links_with_retransmission(self, m, seed):
        """A retransmitted add can land behind its own sub; ranked by
        firing stamps it stays cancelled, at the placement node and, as
        the fact's rule -1 derivation, at every replica.  Applied in
        arrival order, every cell here kept stale j rows after the
        network quiesced."""
        eng, net = run_lossy("j", m, seed)
        assert visible_rows(eng, "j") == expected_j(net, 0)

    def test_j_cheaper_than_h(self):
        """Section VI's improvement: logicJ carries smaller tuples and
        sends fewer messages than logicH."""
        net_h = GridNetwork(6, seed=3)
        _eh, _ = build_sptree(net_h, root=0, variant="h")
        net_h.run_all()
        net_j = GridNetwork(6, seed=3)
        _ej, _ = build_sptree(net_j, root=0, variant="j")
        net_j.run_all()
        assert net_j.metrics.total_messages < net_h.metrics.total_messages
        assert net_j.metrics.total_bytes < net_h.metrics.total_bytes


class TestTombstoneExpiry:
    def test_tombstone_outlives_every_add_it_outranks(self):
        """A subtraction's tombstone stays while an add it outranks can
        still land — a frame retransmitted to the end of its retry
        horizon — and goes, with the fact it leaves empty, at the first
        sweep past that horizon."""
        net = GridNetwork(2, seed=1, reliable=True)
        engine = LocalizedEngine(
            "q(X) :- r(X, Y).", net, {"q": Placement(0), "r": Placement(1)}
        ).install()
        engine.seed(1, "r", (0, 1))  # fires at node 1: q(0) lives at node 0
        net.run_all()
        age = net.radio.max_hop_delay + net.tau_c  # one hop, retries included
        assert engine._age == age
        placed, args = engine.runtimes[0].placed, (Constant(0),)
        ((_op, derivation, added),) = placed.get(("q", args)).ledger.values()
        engine.retract(1, "r", (0, 1))
        net.run_all()
        ((op, _d, subbed),) = placed.get(("q", args)).ledger.values()
        assert op == "sub" and visible_rows(engine, "q") == set()
        # The add's last retransmission lands as late as it can.
        net.run_until(added[0] + age)
        assert engine.expire_all() == 0
        engine._on_result(net.node(0), ResultMsg(
            "q", args, derivation, "add", added, kind="loc_result"
        ))
        assert placed.tombstones() == 1 and visible_rows(engine, "q") == set()
        net.run_until(subbed[0] + 2 * age)
        # q(0)'s tombstone and r(0, 1)'s (the retracted base fact at
        # node 1), then the two facts they leave empty.
        assert engine.expire_all() == 4
        assert not any(len(rt.placed) for rt in engine.runtimes.values())

    def test_lossy_run_expires_every_tombstone(self):
        """Past the horizon a quiesced lossy run holds no tombstone, and
        sweeping changed no row."""
        eng, net = run_lossy("j", 4, 4)
        rows = {p: visible_rows(eng, p) for p in eng.placements}
        assert sum(rt.placed.tombstones() for rt in eng.runtimes.values()) > 0
        net.run_until(net.now + 2 * eng._age)
        eng.expire_all()
        assert sum(rt.placed.tombstones() for rt in eng.runtimes.values()) == 0
        assert {p: visible_rows(eng, p) for p in eng.placements} == rows


class TestProceduralBaseline:
    def test_bfs_correct(self):
        net = GridNetwork(6, seed=4)
        bfs = ProceduralBFS(net, root=0).install()
        bfs.start()
        net.run_all()
        assert bfs.tree_rows() == expected_j(net, 0)

    def test_bfs_on_random(self):
        net = RandomNetwork(25, radius=3.5, seed=5)
        root = net.topology.node_ids[0]
        bfs = ProceduralBFS(net, root=root).install()
        bfs.start()
        net.run_all()
        assert bfs.tree_rows() == expected_j(net, root)

    def test_declarative_within_constant_of_procedural(self):
        """The compiled logicJ stays within a small constant factor of
        hand-written flooding — the paper's efficiency claim."""
        net_j = GridNetwork(6, seed=6)
        _e, _ = build_sptree(net_j, root=0, variant="j")
        net_j.run_all()
        net_p = GridNetwork(6, seed=6)
        bfs = ProceduralBFS(net_p, root=0).install()
        bfs.start()
        net_p.run_all()
        assert net_j.metrics.total_messages <= 10 * net_p.metrics.total_messages


def bounded_j_program(bound: int) -> str:
    """logicJ with a depth bound.

    Retracting a recursive support without a stage bound is the classic
    count-to-infinity problem of distance-vector routing: the teardown
    wave chases a revival wave deriving facts at ever-increasing depths
    (the blocker jp(y, d) dies with the old tree, un-suppressing stale
    longer paths).  A bound >= the network diameter — the standard
    "maximum metric" fix — computes the same tree and makes teardown
    terminate.
    """
    return f"""
        jp(Y, D + 1) :- j(Y, Dp), D + 1 > Dp, j(X, D), g(X, Y).
        j(Y, D + 1) :- g(X, Y), j(X, D), D + 1 <= {bound},
                       not jp(Y, D + 1).
    """


class TestRetraction:
    def _build_bounded(self, net, root):
        bound = net.topology.diameter
        eng = LocalizedEngine(
            bounded_j_program(bound), net, logicj_placements()
        ).install()
        eng.seed_edges("g")
        eng.seed(root, "j", (root, 0))
        return eng

    def test_root_retraction_clears_tree_on_line(self):
        net = GridNetwork(6, 1, seed=7)
        eng = self._build_bounded(net, 0)
        net.run_all()
        assert len(visible_rows(eng, "j")) == 6
        eng.retract(0, "j", (0, 0))
        net.run_all(max_events=2_000_000)
        assert visible_rows(eng, "j") == set()

    def test_root_retraction_with_depth_bound_on_grid(self):
        net = GridNetwork(3, seed=8)
        eng = self._build_bounded(net, 0)
        net.run_all()
        assert len(visible_rows(eng, "j")) == 9
        eng.retract(0, "j", (0, 0))
        net.run_all(max_events=2_000_000)
        assert visible_rows(eng, "j") == set()

    def test_bounded_program_builds_same_tree(self):
        import networkx as nx

        net = GridNetwork(4, seed=9)
        eng = self._build_bounded(net, 0)
        net.run_all()
        truth = set(
            nx.single_source_shortest_path_length(nx.Graph(net.topology.adjacency), 0).items()
        )
        assert visible_rows(eng, "j") == truth


class TestValidation:
    def test_missing_placement_rejected(self):
        net = GridNetwork(3)
        with pytest.raises(PlanError):
            LocalizedEngine(logich_program(), net, {"h": Placement(1)})

    def test_bad_variant(self):
        with pytest.raises(PlanError):
            build_sptree(GridNetwork(3), root=0, variant="z")

    def test_placement_requires_node_id(self):
        from repro.core.terms import Constant

        p = Placement(0)
        with pytest.raises(PlanError):
            p.primary_node((Constant("abc"),), None)

    def test_ungrouped_aggregate_rejected(self):
        """An ungrouped aggregate's row names no node: it has no home."""
        placements = {k: Placement(0) for k in ("c", "r")}
        with pytest.raises(PlanError, match="no group"):
            LocalizedEngine("c(count(_)) :- r(X, _).", GridNetwork(2), placements)

    def test_head_placed_on_aggregate_position_rejected(self):
        """A group is homed at one of its group positions: a row placed
        on its aggregate value would move with every fold."""
        placements = {"c": Placement(1), "r": Placement(0)}
        with pytest.raises(PlanError, match="aggregate position 1"):
            LocalizedEngine("c(X, count(_)) :- r(X, _).", GridNetwork(2), placements)

    def test_negated_atom_away_from_the_home_rejected(self):
        """k(X, Y)'s fact checks not b(Y) at node X, but b(Y) is stored
        at node Y: seeded r(0, 1) at node 0 and b(1) at node 1 would
        leave k(0, 1) visible where evaluate() derives nothing."""
        placements = {k: Placement(0) for k in "krb"}
        with pytest.raises(PlanError, match="never at k"):
            LocalizedEngine("k(X, Y) :- r(X, Y), not b(Y).", GridNetwork(2), placements)
        # Stored at the home through an extra placement argument: fine.
        placements["b"] = Placement(0, extra_attrs=[1])
        LocalizedEngine("k(X, Y) :- r(X, Y), not b(Y, X).", GridNetwork(2), placements)

    def test_anonymous_negated_subgoal_rejected_at_install(self):
        """Localized mode watches ground negated atoms only.  The rule
        used to raise from a message handler mid-run, after earlier
        matches of the same firing were sent; now it never installs."""
        program = "p(X, D) :- q(X, D), not r(_, D)."
        # r(_, D) is stored at D, p(X, D)'s home: the placements hold.
        placements = {"p": Placement(1), "q": Placement(0), "r": Placement(1)}
        engine = LocalizedEngine(program, GridNetwork(2), placements)
        with pytest.raises(PlanError, match="ground negated subgoals"):
            engine.install()


# -- compiled delta-joins ------------------------------------------------------


def reference_fire(rp, occurrence, tables, args, registry):
    """The interpretive enumerator ``LocalizedEngine._fire_rule`` ran
    before delta-joins were compiled (commit 9fe6e71), kept as the
    oracle: per candidate row it rebuilds the pattern, one-way matches
    it and extends a Substitution; built-ins go through eval_builtin,
    the head through ground_head.  Returns the ordered
    (head args, used facts, negated atoms) of one firing, the used
    facts in body order."""
    lit = rp.positive[occurrence]
    seed = match_sequences(
        tuple(normalize_partial(a, registry) for a in lit.atom.args),
        args,
        Substitution(),
    )
    if seed is None:
        return []
    others = [l for i, l in enumerate(rp.positive) if i != occurrence]
    body_position = [occurrence] + [
        i for i in range(len(rp.positive)) if i != occurrence
    ]

    def recurse(idx, subst, used):
        if idx == len(others):
            in_body = [None] * len(used)
            for position, fact in zip(body_position, used):
                in_body[position] = fact
            yield subst, tuple(in_body)
            return
        lit = others[idx]
        pattern = tuple(
            normalize_partial(a.substitute(subst), registry)
            for a in lit.atom.args
        )
        for row in list(tables.get(lit.predicate, ())):
            bindings = match_sequences(pattern, row, Substitution())
            if bindings is None:
                continue
            s2 = Substitution(subst)
            s2.update(bindings)
            used.append((lit.predicate, row))
            yield from recurse(idx + 1, s2, used)
            used.pop()

    out = []
    for subst, used in list(recurse(0, seed, [(lit.predicate, args)])):
        substs = [subst]
        for bl in rp.builtins:
            nxt = []
            for s in substs:
                try:
                    nxt.extend(eval_builtin(bl, s, registry))
                except EvaluationError:
                    pass
            substs = nxt
        for s in substs:
            try:
                head_args = ground_head(rp.rule, s, registry)
            except EvaluationError:
                continue
            neg_atoms = tuple(
                (
                    nlit.predicate,
                    tuple(
                        normalize_partial(a.substitute(s), registry)
                        for a in nlit.atom.args
                    ),
                )
                for nlit in rp.negative
            )
            for pred, nargs in neg_atoms:
                if not all(t.is_ground() for t in nargs):
                    raise PlanError(f"non-ground negated subgoal {pred}{nargs!r}")
            out.append((head_args, used, neg_atoms))
    return out


ARITY = {"a": 2, "b": 2, "c": 3}
VARS = ("X", "Y", "Z", "W")
ONE_PLUS_ONE = FunctionTerm("+", [Constant(1), Constant(1)])

def weighted(*choices):
    """Pick a strategy by weight (one_of picks its branches evenly)."""
    pool = [strategy for weight, strategy in choices for _ in range(weight)]
    return st.integers(0, len(pool) - 1).flatmap(pool.__getitem__)


# Values small enough that random rows join; 1.0 equals 1, "s" makes
# arithmetic and ordered comparisons raise.
values = weighted(
    (12, st.integers(0, 2).map(Constant)),
    (1, st.sampled_from([Constant("s"), Constant(1.0)])),
    (2, st.integers(0, 1).map(lambda k: FunctionTerm("f", [Constant(k)]))),
    (1, st.lists(st.integers(0, 1).map(Constant), max_size=2).map(make_list)),
    # what insert() stores when handed a raw term: not normalized
    (1, st.sampled_from([ONE_PLUS_ONE, FunctionTerm("f", [ONE_PLUS_ONE])])),
)


@st.composite
def rows(draw, pred):
    arity = ARITY[pred] + draw(weighted((8, st.just(0)), (1, st.sampled_from([-1, 1]))))
    return tuple(draw(values) for _ in range(arity))


@st.composite
def rules(draw):
    """One safe rule text: head out(1, ...) so every result is routed to
    node 1 and a firing at node 0 never delivers locally."""
    var = st.sampled_from(VARS)
    pattern_arg = weighted(
        (12, var),
        (2, st.sampled_from(["_", "_", "_", "0", "1", "s", "f(0)", "[0, 1]"])),
        (1, st.one_of(
            var.map(lambda v: f"f({v})"),
            st.tuples(var, var).map(lambda ht: f"[{ht[0]} | {ht[1]}]"),
            var.map(lambda v: f"{v} + 1"),
        )),
    )
    body, bound = [], set()
    for _ in range(draw(st.integers(1, 3))):
        pred = draw(st.sampled_from(sorted(ARITY)))
        args = [draw(pattern_arg) for _ in range(ARITY[pred])]
        body.append(f"{pred}({', '.join(args)})")
        bound.update(v for v in VARS if any(v in a for a in args))
    atoms = [(1, st.sampled_from(["0", "1", "2", "s"]))]
    if bound:
        bound_var = st.sampled_from(sorted(bound))
        atoms += [(6, bound_var), (3, bound_var.map(lambda v: f"{v} + 1"))]
    expr = weighted(*atoms)
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
        negated = draw(st.sampled_from(["", "", "not "]))
        body.append(f"{negated}{draw(expr)} {op} {draw(expr)}")
    if draw(st.booleans()):
        body.append(f"N = {draw(expr)}")
        expr = weighted((4, expr), (1, st.just("N")))
    if draw(st.booleans()):
        pred = draw(st.sampled_from(sorted(ARITY)))
        args = [draw(expr) for _ in range(ARITY[pred])]
        body.append(f"not {pred}({', '.join(args)})")
    draw(st.randoms()).shuffle(body)
    return f"out(1, {draw(expr)}, {draw(expr)}) :- {', '.join(body)}."


def differential_engine(rule):
    """An engine for ``rule`` on four nodes whose node 0 records what
    it would route instead of sending it.  It only fires: every result
    is routed to node 1, where no negated atom the rule draws is
    stored, so the construction check that a run needs (each negated
    atom stored at its head's home) is lifted for it."""
    placements = {p: Placement(0) for p in (*ARITY, "out")}
    with mock.patch.object(localized, "_check_blockers_at_home"):
        engine = LocalizedEngine(rule, GridNetwork(2), placements).install()
    sent = []
    engine.network.node(0).send_routed = lambda home, msg: sent.append((
        home, msg.pred, msg.args, msg.derivation, msg.neg_atoms, msg.op,
    ))
    return engine, sent


def stored_table(pred, rows):
    """A node table over ``rows``: each row maps to its ref, the first
    row equal to it the key, as inserting them one by one stores them."""
    table = {}
    for row in rows:
        table.setdefault(row, fact_ref((pred, row)))
    return table


def deferred(rp, occurrence):
    """Does the seed of positive subgoal ``occurrence`` leave a computed
    argument (``b(X + 1)``) to the complete match?  The oracle matches
    it structurally, so no number ever matches it there."""
    return rp._seed_step(occurrence, False)[1] is not None


def evaluated_firing(rp, occurrence, tables, args):
    """What :func:`evaluate` derives with ``args`` as subgoal
    ``occurrence`` of ``rp.positive`` and the other subgoals over
    ``tables``: the sorted ``(head ref, record, negated atom refs)`` of
    every match, or None when evaluation raises (a node drops the match
    there, and evaluation may run a built-in before a subgoal the node
    finds no row for).  The rule runs with its trigger subgoal renamed to a
    relation holding only ``args``, and with its negated subgoals'
    arguments appended to its head instead of checked: a node ships
    the negated atoms of a match, it does not check them."""
    trigger = rp.positive[occurrence]
    body = [RelLiteral(Atom("seeded", trigger.atom.args)) if lit is trigger else lit
            for lit in rp.rule.body if not (isinstance(lit, RelLiteral) and lit.negated)]
    negs = [(n.predicate, len(n.atom.args)) for n in rp.negative]
    head = Atom("fired", [*rp.head.args, *(a for n in rp.negative for a in n.atom.args)])
    rule = Rule(head, body, rule_id=0)
    positive = [lit.atom.args for lit in GLOBAL_PLAN_CACHE.get(rule).positive]
    assert positive == [lit.atom.args for lit in rp.positive]  # one body order
    db = Database()
    for pred, rows in tables.items():
        for row in rows:
            db.assert_fact(pred, row)
    db.assert_fact("seeded", args)
    try:
        evaluate(Program([rule]), db)
    except EvaluationError:
        return None
    ref = fact_ref((trigger.predicate, args))
    out = []
    for (_pred, fired), derivations in db.derivations.snapshot().items():
        at, neg_refs = len(rp.head.args), []
        for pred, arity in negs:
            neg_refs.append(fact_ref((pred, fired[at:at + arity])))
            at += arity
        for d in derivations:
            record = [ref if f[0] == "seeded" else fact_ref(f) for f in d.body_facts]
            out.append((fact_ref((rp.head.predicate, fired[:len(rp.head.args)])),
                        (rp.rule_id, *record), tuple(neg_refs)))
    return sorted(out)


def assert_fires_like_interpreter(engine, sent, tables, pred, args, op):
    """Add / remove ('sub') the visible row ``pred(args)`` at node 0 and
    compare what the engine sends, in order, with the interpretive
    oracle run on the very tables the engine read (insertion order is
    the match order).  A sent derivation is the central record; the
    oracle's used facts are made one through ``fact_ref``.  A trigger
    whose seed defers a computed argument is compared, as a set, with
    :func:`evaluated_firing` instead; where evaluation raises, nothing
    is compared (returns None)."""
    live = {p: stored_table(p, rs) for p, rs in tables.items()}
    # an insert must be new, a delete must be stored
    if op == "add":
        live[pred].pop(args, None)
    else:
        live[pred].setdefault(args, fact_ref((pred, args)))
    engine.runtimes[0].tables = live
    del sent[:]
    raised = expected_error = None
    try:
        engine._table_update(engine.network.node(0), pred, args, op)
    except Exception as exc:
        raised = type(exc)
    segments = []  # (exact, expected sends) per firing, in firing order
    try:
        for rp, occurrence in engine.plan.positive_triggers.get(pred, ()):
            if deferred(rp, occurrence):
                fired = evaluated_firing(rp, occurrence, live, args)
                if fired is None:
                    return None
                segments.append((False, fired))
                continue
            segments.append((True, [
                (1, "out", head, (rp.rule_id, *map(fact_ref, used)), negs, op)
                for head, used, negs in reference_fire(
                    rp, occurrence, live, args, engine.registry
                )
            ]))
    except Exception as exc:
        expected_error = type(exc)
    assert raised == expected_error
    if raised is not None:
        return []
    at, expected = 0, []
    for exact, fired in segments:
        got = sent[at:at + len(fired)]
        at += len(fired)
        if exact:
            assert got == fired
        else:
            assert all(home == 1 and sub == op for home, *_, sub in got)
            assert sorted((fact_ref(("out", head)), record, tuple(map(fact_ref, negs)))
                          for _home, _pred, head, record, negs, _op in got) == fired
        expected += fired
    assert at == len(sent)
    return expected


class TestCompiledDeltaJoin:
    @settings(max_examples=300, deadline=None)
    @given(
        rule=rules(),
        tables=st.fixed_dictionaries(
            {p: st.lists(rows(p), min_size=4, max_size=9) for p in sorted(ARITY)}
        ),
        data=st.data(),
    )
    def test_matches_interpretive_enumerator(self, rule, tables, data):
        try:
            engine, sent = differential_engine(rule)
        except ProgramError as exc:
            # A computed argument no order binds first is refused at
            # plan time: there is no join to compare.
            assert "computed argument" in str(exc)
            assume(False)
        firings = data.draw(st.lists(
            st.tuples(
                st.sampled_from(sorted(engine.plan.positive_triggers)),
                st.integers(0, 8),
                st.sampled_from(["add", "sub"]),
            ),
            min_size=1, max_size=3,
        ))
        for pred, pick, op in firings:
            stored = tables[pred]
            args = stored[pick] if pick < len(stored) else data.draw(rows(pred))
            assume(assert_fires_like_interpreter(engine, sent, tables, pred, args, op)
                   is not None)

    def test_structural_literals(self):
        """Complex arguments with variables of their own — matched
        structurally, their variables read by later literals and the
        head — with every stored row as the trigger of every literal."""
        f = lambda *args: FunctionTerm("f", [Constant(a) for a in args])
        ints = lambda *ks: tuple(Constant(k) for k in ks)
        tables = {
            "a": [(f(0), make_list(ints(1, 2))), (f(1), make_list(ints(0))),
                  (f(1), Constant("nil")), ints(1, 2)],
            "b": [ints(0, 1), ints(1, 0), ints(1, 2), (f(1), Constant(1))],
            "c": [(Constant(0), f(1), Constant(2)), ints(1, 1, 2),
                  (Constant(1), f(0), Constant(0))],
        }
        results = 0
        for rule in [
            "out(1, X, T) :- a(f(X), [H | T]), b(X, H).",
            "out(1, H, Z + 1) :- b(X, H), a(f(X), [H | _]), c(X, f(H), Z).",
            "out(1, X, Y) :- c(X, f(X), Y), b(f(X), Y).",
            "out(1, X, Y) :- b(X, Y), c(Y, f(X), _), not a(f(X), Y).",
        ]:
            engine, sent = differential_engine(rule)
            for pred in engine.plan.positive_triggers:
                for args in tables[pred]:
                    for op in ("add", "sub"):
                        results += len(assert_fires_like_interpreter(
                            engine, sent, tables, pred, args, op
                        ))
        assert results >= 20  # the cases do derive

    def test_computed_trigger_against_evaluate(self):
        """A trigger on ``b(X + 1, Y)`` seeds its join with the computed
        argument deferred; the oracle matches it structurally, so these
        firings are compared with :func:`evaluate` (every row of ``b``
        of either subgoal order, added and removed)."""
        ints = lambda *ks: tuple(Constant(k) for k in ks)
        tables = {"a": [ints(0, 1), ints(1, 1), ints(1, 2), ints(2, 0)],
                  "b": [ints(1, 1), ints(2, 1), ints(2, 2), ints(0, 0)], "c": []}
        results = 0
        for rule in ["out(1, X, Y) :- a(X, Y), b(X + 1, Y).",
                     "out(1, X, Y) :- b(X + 1, Y), a(X, Y), not c(X, Y, 0)."]:
            engine, sent = differential_engine(rule)
            rp, occurrence = engine.plan.positive_triggers["b"][0]
            assert deferred(rp, occurrence)
            for args in tables["b"]:
                for op in ("add", "sub"):
                    results += len(assert_fires_like_interpreter(
                        engine, sent, tables, "b", args, op
                    ))
        assert results == 12  # (0,1), (1,1), (1,2): twice per rule and op

    def test_probe_hands_out_stored_row(self):
        """1 == 1.0: a lookup of the ``1`` spelling hands out the ref of
        the stored ``1.0`` row, as the scan it replaces matched that
        row."""
        engine, sent = differential_engine("out(1, X, Y) :- a(X, Y), b(X, Y).")
        stored = (Constant(1.0), Constant(2))
        tables = {"a": [], "b": [stored], "c": []}
        assert_fires_like_interpreter(
            engine, sent, tables, "a", (Constant(1), Constant(2)), "add"
        )
        assert sent[0][3][2] is engine.runtimes[0].tables["b"][stored]

    def test_lookup_in_a_table_never_stored(self):
        """An all-known literal over a predicate the node has no table
        for is a lookup that misses, not a crash."""
        engine = LocalizedEngine(
            "q(X, Y) :- c(X, Y), h(X).", GridNetwork(2),
            {p: Placement(0) for p in "chq"},
        ).install()
        engine.seed(1, "c", (1, 5))
        engine.network.run_all()
        assert visible_rows(engine, "q") == set()
        engine.seed(1, "h", (1,))
        engine.network.run_all()
        assert visible_rows(engine, "q") == {(1, 5)}

    def test_plan_with_delta_joins_pickles(self):
        net = GridNetwork(3, seed=1)
        engine, _ = build_sptree(net, root=0, variant="j")
        net.run_all()
        joins = engine._joins["add"]
        copies = pickle.loads(pickle.dumps((engine.plan, joins)))[1]
        tables = engine.runtimes[4].tables
        for pred, pred_joins in joins.items():
            for (rp, occurrence), (copy, at) in zip(pred_joins, copies[pred]):
                assert at == occurrence and copy is not rp
                for args, ref in tables[pred].items():
                    assert delta_join(copy, at, tables, args, ref, engine.registry) == (
                        delta_join(rp, occurrence, tables, args, ref, engine.registry)
                    )

    # Recorded on 9fe6e71, the last commit that unified per row:
    # (frames, bytes, events, rows).
    @pytest.mark.parametrize("variant,build,root,pin", [
        ("j", lambda: GridNetwork(14, seed=12), 0, (1820, 66976, 1820, 196)),
        ("j", lambda: GridNetwork(10, seed=3), 0, (900, 33120, 900, 100)),
        ("h", lambda: GridNetwork(10, seed=3), 0, (1962, 80856, 1962, 181)),
        ("h", lambda: GridNetwork(6, seed=11), 0, (610, 25080, 610, 61)),
        ("j", lambda: RandomNetwork(60, radius=1.8, side=60 ** 0.5, seed=2), 0,
         (1136, 42712, 1136, 60)),
    ])
    def test_traffic_identical_to_interpreter(self, variant, build, root, pin):
        net = build()
        engine, pred = build_sptree(net, root=root, variant=variant)
        net.run_all()
        assert (
            net.metrics.total_messages, net.metrics.total_bytes,
            net.sim.events_processed, len(visible_rows(engine, pred)),
        ) == pin

    def test_routing_app_rows(self):
        net = GridNetwork(5, seed=4)
        engine = build_routing(net)
        net.run_all()
        assert len(visible_rows(engine, "route")) == 5400
        assert net.metrics.total_messages == 33314

    def _selectivity_observations(self):
        net = GridNetwork(4, seed=1)
        build_sptree(net, root=0, variant="j")
        net.run_all()
        hist = obs.REGISTRY.get("repro_join_selectivity")
        return {labels: h.count for labels, h in hist.series()}

    def test_join_selectivity_histogram(self):
        was = obs.enabled()
        try:
            obs.disable()
            obs.reset()
            assert not any(self._selectivity_observations().values())
            obs.enable()
            counts = self._selectivity_observations()
            assert counts[("jp#r0",)] > 0 and counts[("j#r1",)] > 0
        finally:
            obs.reset()
            if not was:
                obs.disable()
