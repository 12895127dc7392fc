"""Localized in-network evaluation with attribute-based placement.

The shortest-path-tree programs (Example 3 / Section VI) compile to
*localized joins*: ``h(x, y, d)`` lives at node ``y``, ``hp(y, d)`` at
node ``y``, edges ``g(x, y)`` are known at both endpoints — so every
join touches only a node and its neighbors, and every derived tuple
travels one hop to its placement node.  Section V's memory analysis
("each node y stores only tuples of the form H(_, y, _) or H'(y, _)";
2-3x its degree tuples total) describes exactly this scheme.

Mechanics:

* each predicate has a **placement**: the argument position(s) whose
  value names the node(s) storing the fact (the first is the primary;
  facts are also replicated to the primary's neighbors when
  ``replicate_to_neighbors`` is set, so neighbors can join over them:
  the primary ships each visibility flip, stamped, as the fact's rule
  -1 derivation there);
* an insertion visible at a node delta-fires the rules there — each
  (rule, trigger occurrence) joins through
  :func:`~repro.dist.plans.delta_join`, from the rule's compiled seed
  along its compiled walk (Section V's "list of join-conditions" in
  program flash, the same one GPA and the maintainers read); complete
  results are sent to their head's placement node carrying the
  derivation and the instantiated negated subgoals to watch;
* a result, like a replica, is a :class:`~repro.dist.derived.ResultMsg`
  carrying its firing's stamp (:func:`_stamp`), ranked at the
  placement node by :meth:`~repro.dist.derived.DerivedTable.update` as
  GPA's hash nodes rank theirs, so a sub that overtakes its add still
  cancels it.  A base fact is its own rule -1 derivation: ``seed`` adds
  it, ``retract`` subtracts it; tombstones expire once no add they
  outrank can land (:meth:`LocalizedEngine._sweep`);
* a live derivation is *valid* while none of its watched negated atoms
  is visible; a fact is visible while it has a valid derivation.
  Late-arriving blockers retract optimistically accepted facts (and the
  retraction cascades), implementing the paper's "wait before
  finalizing a derived fact — it may be retracted later" discipline for
  XY-stratified programs;
* a head aggregate's group is homed where its head's placement
  attribute, a group position, points: its valuations are placed there
  unreplicated and fold there on a flip
  (:meth:`~repro.dist.derived.DerivedTable.moves`), each row move going
  to the row's placement.  ``c(Y, count(X)) :- h(X, Y, _)`` placed at Y
  keeps group, valuations and row at node Y.

Facts and derivations live in the central store's id space
(:mod:`repro.core.derivations`): a table maps each visible row to its
ref ``(pred, id_1, ..., id_n)``, made once as the row turns visible, and
a derivation is the record ``(rule_id, ref_1, ..., ref_k)`` the join
fills from those refs; the ledger, the watch index and the messages
key on it, so a firing hashes no term.

Tables and watch index are insertion-ordered dicts: the order a node
fires and sends in does not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.aggregates import Aggregate
from ..core.builtins import BuiltinRegistry, eval_term
from ..core.columnar import GLOBAL_INTERNER
from ..core.derivations import fact_ref
from ..core.errors import PlanError
from ..core.eval import _freeze_value
from ..core.parser import parse_program
from ..core.plan import CompiledPlan
from ..core.terms import Term, to_term
from ..net.network import SensorNetwork
from ..net.node import Node
from ..obs import instrument as _inst
from ..obs import state as _obs
from ..obs.spans import CountedHandler
from ..streams.tuples import ArgsTuple
from .derived import DerivedFact, DerivedTable, ResultMsg
from .plans import DistributedPlan, delta_join


class Placement:
    """Where a predicate's facts live."""

    def __init__(self, attr: int, replicate_to_neighbors: bool = False,
                 extra_attrs: Sequence[int] = ()):
        self.attr = attr
        self.replicate_to_neighbors = replicate_to_neighbors
        self.extra_attrs = tuple(extra_attrs)

    def primary_node(self, args: ArgsTuple, registry) -> int:
        value = eval_term(args[self.attr], registry)
        if not isinstance(value, int):
            raise PlanError(
                f"placement attribute value {value!r} is not a node id"
            )
        return value

    def all_nodes(self, args: ArgsTuple, registry) -> List[int]:
        out = [self.primary_node(args, registry)]
        for attr in self.extra_attrs:
            value = eval_term(args[attr], registry)
            if isinstance(value, int) and value not in out:
                out.append(value)
        return out

    def __repr__(self) -> str:
        extra = f"+{list(self.extra_attrs)}" if self.extra_attrs else ""
        nbr = "+nbrs" if self.replicate_to_neighbors else ""
        return f"Placement(arg {self.attr}{extra}{nbr})"


def _interned(value) -> Tuple[Term, int]:
    """``value``'s term and interner id.  The term is the interner's
    own object (its hash computed, met by identity in every later table
    lookup) unless the interner first met the value spelled otherwise
    (``3.0`` before node ``3``): a seeded fact keeps its spelling."""
    term = to_term(value)
    tid = GLOBAL_INTERNER.intern(term)
    canonical = GLOBAL_INTERNER.terms[tid]
    return (canonical if repr(canonical) == repr(term) else term), tid


def _check_blockers_at_home(plan: DistributedPlan, placements: Dict[str, Placement]) -> None:
    """A head's fact checks its negated atoms in its home's own tables,
    so each negated atom must be stored there: one of its placement
    arguments (primary or extra) must be the head's placement argument.
    Raises :class:`PlanError` otherwise."""
    for rp in plan.rule_plans:
        home = rp.head.args[placements[rp.head.predicate].attr]
        for literal in rp.negative:
            placement = placements[literal.predicate]
            stored = [literal.atom.args[a] for a in (placement.attr, *placement.extra_attrs)]
            if home not in stored:
                raise PlanError(
                    f"{literal!r} is stored at {', '.join(map(repr, stored))}, never "
                    f"at {rp.head!r}'s home {home!r}: localized mode checks a "
                    "negated atom in the head's home's own tables"
                )


def _check_ground_negation(rp: CompiledPlan, occurrence: int) -> None:
    """Localized mode ships a match's negated atoms to be watched, so
    each must be ground once the join seeded at ``occurrence`` is
    complete (rows are ground: they are ground heads or seeded values).
    Raises :class:`PlanError` otherwise."""
    _steps, (_builtins, _head, negs) = rp.walk(occurrence)
    for nlit, step in zip(rp.negative, negs):
        if step.structural is not None or len(step.known) != step.arity:
            free = [v for v in nlit.variables() if not step.after >> rp.slots[v] & 1]
            raise PlanError(
                "localized mode requires ground negated subgoals; "
                f"{nlit!r} in rule {rp.rule!r} leaves {free!r} unbound"
            )


def _stamp(node: Node) -> tuple:
    """One firing's stamp: totally ordered across nodes, strictly
    increasing along the node's own firings.  Ranking by it converges:
    the top-ranked update for an identity is some node's last firing,
    and a node's last firing reflects its final view (an add while its
    tables hold every row used, a sub once one left).  ``sim.now``
    alone would not do: a delete and a re-insert at one node in one
    instant would tie, and ``(stamp, is a sub)`` ranks the sub on top."""
    return (node.clock.now(), node.id, node.next_seq())


class PlacedFact(DerivedFact):
    """Placement-node state of one fact: its ledger, plus the negated
    atoms each live derivation watches and whether the fact is visible
    (it has a live derivation none of whose atoms is stored)."""

    __slots__ = ("watched", "visible")

    def __init__(self):
        super().__init__()
        self.watched: Dict[tuple, tuple] = {}  # live derivation -> atoms
        self.visible = False


class PlacedTable(DerivedTable):
    """A localized node's table: its facts watch negated atoms."""

    __slots__ = ()
    new = PlacedFact


class LocalRuntime:
    """One node's tables and watch index."""

    def __init__(self):
        # pred -> {row: its fact ref} of visible facts (primaries and
        # replicas alike)
        self.tables: Dict[str, Dict[ArgsTuple, tuple]] = {}
        self.placed = PlacedTable()  # their ledgers
        # negated-atom key -> {(fact_key, derivation): None}
        self.watches: Dict[Tuple[str, ArgsTuple], Dict[tuple, None]] = {}
        self.swept = 0.0  # local time of the last tombstone sweep

    def table(self, pred: str) -> Dict[ArgsTuple, tuple]:
        return self.tables.setdefault(pred, {})

    def memory_tuples(self) -> int:
        """Resident tuples: the visible rows, plus the ledger's facts
        that are not visible and its tombstones."""
        placed = self.placed
        return (
            sum(len(t) for t in self.tables.values())
            + sum(not fact.visible for fact in placed.values())
            + placed.tombstones()
        )


class LocalizedEngine:
    """Distributed engine for programs with attribute placements.

    ::

        placements = {
            "g":  Placement(1, extra_attrs=[0]),
            "h":  Placement(1, replicate_to_neighbors=True),
            "hp": Placement(0),
        }
        engine = LocalizedEngine(LOGICH, net, placements).install()
        engine.seed_edges("g")
        engine.seed(root, "h", (root, root, 0))
        net.run_all()
    """

    def __init__(
        self,
        program,
        network: SensorNetwork,
        placements: Dict[str, Placement],
        registry: Optional[BuiltinRegistry] = None,
    ):
        if isinstance(program, str):
            program = parse_program(program, registry) if registry else parse_program(program)
        self.plan = DistributedPlan(program, registry, allow_local_nonrecursive=True)
        self.registry = self.plan.registry
        self.network = network
        self.placements = dict(placements)
        for pred in self.plan.predicates():
            if pred not in self.placements:
                raise PlanError(f"no placement declared for predicate {pred!r}")
        #: Valuation predicate -> its rule's fold.  A group is homed at
        #: the node its head's placement attribute names, and its
        #: valuations are placed there with it (no replication).
        self._folds: Dict[str, Aggregate] = {}
        for aggregate in filter(None, (rp.aggregate for rp in self.plan.rule_plans)):
            attr = self.placements[aggregate.head].attr
            if attr not in aggregate.group:
                why = f"is placed on aggregate position {attr}" if aggregate.group else "has no group"
                raise PlanError(f"{aggregate.head} {why}: localized mode homes a "
                                "group at one of its group positions")
            self.placements[aggregate.valuation] = Placement(aggregate.group.index(attr))
            self._folds[aggregate.valuation] = aggregate
        _check_blockers_at_home(self.plan, self.placements)
        self.runtimes: Dict[int, LocalRuntime] = {}
        self._installed = False
        #: Tombstone age of the longest route sent on, one hop at least
        #: (:meth:`_send`, :meth:`_sweep`).
        self._age = network.radio.max_hop_delay + network.tau_c

    def install(self) -> "LocalizedEngine":
        if self._installed:
            return self
        triggers = self.plan.positive_triggers
        for rp, occurrence in (t for ts in triggers.values() for t in ts):
            _check_ground_negation(rp, occurrence)
        blocks = self.plan.negative_triggers.__contains__
        #: Per op, pred -> the (rule plan, occurrence) pairs it fires:
        #: blockers first for an add, last for a sub.
        self._joins = {
            op: {p: sorted(ts, key=lambda t: blocks(t[0].head.predicate) == last)
                 for p, ts in triggers.items()}
            for op, last in (("add", False), ("sub", True))
        }
        on_result, on_replica = (
            CountedHandler(self._on_result, _inst.localized_messages.name,
                           kind, {"kind": kind})
            for kind in ("loc_result", "loc_replica")
        )
        for node in self.network.nodes.values():
            self.runtimes[node.id] = LocalRuntime()
            node.register_handler("loc_result", on_result)
            node.register_handler("loc_replica", on_replica)
        self._installed = True
        return self

    # -- seeding / external inserts -------------------------------------------

    def seed_edges(self, pred: str) -> None:
        """Seed the topology as ``pred(x, y)`` facts at both endpoints —
        nodes learn their neighbors from link beacons, which costs the
        same for every compared scheme and is excluded from metrics."""
        topology = self.network.topology
        interned = {n: _interned(n) for n in topology.node_ids}
        for a in topology.node_ids:
            term_a, id_a = interned[a]
            for b in topology.neighbors(a):
                term_b, id_b = interned[b]
                args, ref = (term_a, term_b), (pred, id_a, id_b)
                self.runtimes[a].table(pred).setdefault(args, ref)
                self.runtimes[b].table(pred).setdefault(args, ref)

    def seed(self, node_id: int, pred: str, args: Iterable) -> None:
        """Install a base fact directly at a node (no radio cost): add
        its rule -1 derivation."""
        self._base(node_id, pred, args, "add")

    def retract(self, node_id: int, pred: str, args: Iterable) -> None:
        """Withdraw a seeded base fact: subtract its rule -1 derivation."""
        self._base(node_id, pred, args, "sub")

    def _base(self, node_id: int, pred: str, args: Iterable, op: str) -> None:
        interned = [_interned(a) for a in args]
        args_t = tuple(term for term, _id in interned)
        ref = (pred, *(tid for _term, tid in interned))
        node = self.network.node(node_id)
        self._apply(node, pred, args_t, op, (-1, ref), (), _stamp(node))

    def memory_report(self) -> Dict[int, int]:
        """Per-node resident tuples (:meth:`LocalRuntime.memory_tuples`)
        — Section V's claim is that the shortest-path programs store
        O(degree) tuples per node."""
        return {
            node_id: runtime.memory_tuples()
            for node_id, runtime in self.runtimes.items()
        }

    def expire_all(self) -> int:
        """Sweep every node's table now (:meth:`_sweep`); returns the
        tuples reclaimed."""
        return sum(self._sweep(rt, self.network.node(nid).clock.now())
                   for nid, rt in self.runtimes.items())

    # -- result handling --------------------------------------------------------

    def _on_result(self, node: Node, msg: ResultMsg) -> None:
        self._apply(node, msg.pred, msg.args, msg.op, msg.derivation,
                    msg.neg_atoms, msg.stamp)

    def _apply(self, node: Node, pred: str, args: ArgsTuple, op: str,
               derivation: tuple, neg_atoms: tuple, stamp: tuple) -> None:
        """Rank one stamped update into the fact's ledger; only a
        derivation whose liveness flipped touches the watch index."""
        runtime = self.runtimes[node.id]
        if op == "sub" and node.clock.now() - runtime.swept > self._age:
            self._sweep(runtime, node.clock.now())  # only a sub leaves a tombstone
        fact = runtime.placed.update(pred, args, op, derivation, stamp)
        if fact is None:
            return
        entry = ((pred, args), derivation)
        if op == "sub":
            for atom in fact.watched.pop(derivation):
                runtime.watches[atom].pop(entry, None)
        else:
            fact.watched[derivation] = neg_atoms
            for atom in neg_atoms:
                runtime.watches.setdefault(atom, {})[entry] = None
        self._recompute_visibility(node, pred, args)

    def _sweep(self, runtime: LocalRuntime, now: float) -> int:
        """Expire the tombstones no add they outrank can still reach;
        returns the tuples reclaimed.  An update is stamped by its
        sender's clock as it is sent and takes a route of at most h hops
        (the longest sent on), each within ``radio.max_hop_delay`` (in
        reliable mode the whole retry horizon: a frame lands by then or
        never); the receiver's clock runs at most tau_c ahead, so an
        update stamped t has landed by local time t + ``_age``, h hops'
        delay + tau_c.  A ``(time, node, seq)`` stamp compares on time:
        ``(now - _age,)`` ranks above every stamp of an earlier time."""
        runtime.swept = now
        return runtime.placed.expire((now - self._age,))

    def _recompute_visibility(self, node: Node, pred: str, args: ArgsTuple) -> None:
        runtime = self.runtimes[node.id]
        fact = runtime.placed.get((pred, args))
        if fact is None:
            return
        now_visible = any(
            not any(a in runtime.tables.get(p, ()) for p, a in neg_atoms)
            for neg_atoms in fact.watched.values()
        )
        if now_visible != fact.visible:
            fact.visible = now_visible
            self._table_update(node, pred, args, "add" if now_visible else "sub")
            aggregate = self._folds.get(pred)
            if aggregate is not None:
                self._fold(node, aggregate, args)

    def _fold(self, node: Node, aggregate: Aggregate, valuation: ArgsTuple) -> None:
        """``valuation`` flipped at its group's home: each row move
        (:meth:`~repro.dist.derived.DerivedTable.moves`) goes to the
        row's home as a result of the fold's derivation ``(rule_id,)``,
        stamped by a firing of this node, so in fold order."""
        for op, row in self.runtimes[node.id].placed.moves(aggregate, valuation):
            home = self.placements[aggregate.head].primary_node(row, self.registry)
            self._send(node, home, ResultMsg(aggregate.head, row, (aggregate.rule_id,), op,
                                             _stamp(node), kind="loc_result"))

    # -- table updates: the delta-firing core -------------------------------------

    def _table_update(self, node: Node, pred: str, args: ArgsTuple, op: str) -> None:
        """Add or remove ('sub') a visible row and delta-fire the rules
        it triggers.  The row's fact ref is made as it turns visible
        and handed back as it leaves."""
        table = self.runtimes[node.id].table(pred)
        if op == "add":
            if args in table:
                return
            ref = table[args] = fact_ref((pred, args))
        else:
            ref = table.pop(args, None)
            if ref is None:
                return
        self._send_replicas(node, pred, args, ref, op)
        self._check_watchers(node, pred, args)
        self._fire_rules(node, pred, args, ref, op)

    def _send_replicas(self, node: Node, pred: str, args: ArgsTuple, ref: tuple,
                       op: str) -> None:
        """Ship a flip at the fact's primary placement (only) on."""
        placement = self.placements[pred]
        if not (placement.replicate_to_neighbors or placement.extra_attrs):
            return
        homes = placement.all_nodes(args, self.registry)
        if homes[0] != node.id:
            return
        targets = list(node.neighbors) if placement.replicate_to_neighbors else []
        targets.extend(n for n in homes[1:] if n not in targets)
        derivation = (-1, ref)
        stamp = _stamp(node)
        for target in targets:
            self._send(node, target, ResultMsg(
                pred, args, derivation, op, stamp, kind="loc_replica", category="replica"
            ))

    def _send(self, node: Node, target: int, msg: ResultMsg) -> None:
        """Route ``msg`` (in place if ``target`` is here), first
        widening ``_age`` to the route's length."""
        if target != node.id and target not in node.neighbors:
            net = self.network
            hops = len(net.router.path(node.id, target)) - 1
            self._age = max(self._age, hops * net.radio.max_hop_delay + net.tau_c)
        node.send_routed(target, msg)

    def _check_watchers(self, node: Node, pred: str, args: ArgsTuple) -> None:
        watchers = self.runtimes[node.id].watches.get((pred, args), ())
        for fact_key, _derivation in list(watchers):
            self._recompute_visibility(node, fact_key[0], fact_key[1])

    # -- rule firing -----------------------------------------------------------------

    def fire_stored(self, pred: str) -> None:
        """Fire the rules ``pred`` triggers for every fact of it already
        stored at a node — how facts installed silently (``seed_edges``)
        start their derivations."""
        for node_id in self.network.topology.node_ids:
            node = self.network.node(node_id)
            for args, ref in list(self.runtimes[node_id].tables.get(pred, {}).items()):
                self._fire_rules(node, pred, args, ref, op="add")

    def _fire_rules(self, node: Node, pred: str, args: ArgsTuple, ref: tuple,
                    op: str) -> None:
        """Fire the delta-joins ``pred`` triggers, those deriving a
        blocker (a predicate some rule negates) first for an added row
        and last for a removed one: a fact the row both supports and
        blocks never flashes visible in between, to be carried on by
        its replicas (under loss, without end)."""
        for rp, occurrence in self._joins[op].get(pred, ()):
            self._fire_rule(node, rp, occurrence, args, ref, op)

    def _fire_rule(self, node: Node, rp: CompiledPlan, occurrence: int, args: ArgsTuple,
                   ref: tuple, op: str) -> None:
        tables = self.runtimes[node.id].tables
        # The join is complete before anything is emitted: locally
        # delivered results mutate the very tables it reads.
        if _obs.enabled:
            stats = [0, 0]  # rows scanned, rows matched
            results = delta_join(rp, occurrence, tables, args, ref, self.registry, stats)
            if stats[0]:
                _inst.join_selectivity.labels(rule=rp.label).observe(
                    stats[1] / stats[0]
                )
        else:
            results = delta_join(rp, occurrence, tables, args, ref, self.registry)
        if not results:
            return
        stamp = _stamp(node)
        head_pred = rp.head.predicate
        placement = self.placements[head_pred]
        for head_args, derivation, neg_atoms in results:
            # A fact is its ref, the same at every node: duplicate
            # firings (primary + replicas) dedupe at the home.
            home = placement.primary_node(head_args, self.registry)
            self._send(node, home, ResultMsg(
                head_pred, head_args, derivation, op, stamp, neg_atoms, kind="loc_result"
            ))


def logich_program() -> str:
    """Example 3's shortest-path-tree program text, parameterized by the
    root fact injected separately."""
    return """
        hp(Y, D + 1) :- h(_, Y, Dp), D + 1 > Dp, h(_, X, D), g(X, Y).
        h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
    """


def logicj_program() -> str:
    """The improved logicJ program (Section VI): J carries only
    (node, depth), shrinking both tuples and join work."""
    return """
        jp(Y, D + 1) :- j(Y, Dp), D + 1 > Dp, j(X, D), g(X, Y).
        j(Y, D + 1) :- g(X, Y), j(X, D), not jp(Y, D + 1).
    """


def logich_placements() -> Dict[str, Placement]:
    return {
        "g": Placement(1, extra_attrs=[0]),
        "h": Placement(1, replicate_to_neighbors=True),
        "hp": Placement(0),
    }


def logicj_placements() -> Dict[str, Placement]:
    return {
        "g": Placement(1, extra_attrs=[0]),
        "j": Placement(0, replicate_to_neighbors=True),
        "jp": Placement(0),
    }


def build_sptree(
    network: SensorNetwork,
    root: int,
    variant: str = "h",
) -> Tuple["LocalizedEngine", str]:
    """Install and run a shortest-path-tree construction from ``root``.

    Returns (engine, result predicate).  ``variant`` is 'h' (logicH) or
    'j' (logicJ).
    """
    if variant == "h":
        engine = LocalizedEngine(logich_program(), network, logich_placements())
        engine.install()
        engine.seed_edges("g")
        engine.seed(root, "h", (root, root, 0))
        return engine, "h"
    if variant == "j":
        engine = LocalizedEngine(logicj_program(), network, logicj_placements())
        engine.install()
        engine.seed_edges("g")
        engine.seed(root, "j", (root, 0))
        return engine, "j"
    raise PlanError(f"unknown shortest-path variant {variant!r}")


def visible_rows(engine: LocalizedEngine, pred: str) -> Set[tuple]:
    """All visible placed facts for ``pred`` (primary placements only)."""
    placement, registry = engine.placements[pred], engine.registry
    return {
        tuple(_freeze_value(eval_term(a, registry)) for a in args)
        for node_id, runtime in engine.runtimes.items()
        for _pred, args, _fact in runtime.placed.visible(pred)
        if placement.primary_node(args, registry) == node_id
    }
