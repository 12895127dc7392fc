"""In-network evaluation with the Generalized Perpendicular Approach.

The complete Section III/IV machinery:

* **storage phase** — a generated (or deleted) tuple is replicated (or
  deletion-marked) along its storage region;
* **join-computation phase** — after a delay of tau_s + tau_c, a join
  token traverses the join region, accumulating *partial results* (Fig.
  1) against the replicas stored at each node; complete results are
  emitted immediately (one-pass) unless the rule has negated subgoals,
  in which case candidates are carried to the end of the path and
  struck out by any node holding a matching blocker;
* **derived streams** — complete results are routed to their geographic
  hash node, where the set of derivations is maintained; a tuple's
  first derivation makes it a *generation* of the derived stream (it
  then starts its own storage/join phases), and an emptied derivation
  set makes it a deletion (Section IV-B);
* **timestamp discipline** — an update with timestamp tau joins only
  tuples generated in ``(tau - tau_w, tau]`` and not deleted before
  ``tau`` (Theorem 3), which serializes simultaneous updates, and
  ranks its results at the hash node: a subtraction cancels the same
  derivation's additions stamped no later, whichever arrives first
  (:meth:`DerivedFact.apply`);
* **head aggregates** — an aggregate rule's results are valuation
  facts (:mod:`repro.core.aggregates`) homed at their group's GHT key,
  so one node holds a whole group; when a valuation's visibility flips
  there it refolds the group (:meth:`DerivedTable.moves`) and sends the
  row's retraction and replacement to the row's own home, as results of
  the fold's derivation stamped in the order it folds;
* **pipelined mode** — ``mode="pipelined"`` drops Theorem 3's tau_s +
  tau_c launch delay for every rule
  :func:`~repro.core.stratify.rule_releases` lets stream (CALM /
  win-move analysis, per rule; the others keep it, each with its reason
  in ``releases``): join tokens launch in the same causal chain as the
  triggering store, incomplete partial results *park* at join-region
  nodes and are extended by late-arriving replicas (spawning
  continuation tokens), and deletions launch *retro* tokens that
  subtract every derivation using the deleted tuple.  The timestamp
  discipline is data-dependent, not arrival-dependent, so the final
  rows and derivation sets match barrier mode exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.aggregates import Aggregate
from ..core.builtins import BuiltinRegistry, eval_term
from ..core.errors import NetworkError, PlanError
from ..core.eval import _freeze_value
from ..core.parser import parse_program
from ..core.plan import CompiledPlan
from ..core.stratify import ProgramClass, rule_releases
from ..core.terms import term_size
from ..net.messages import Message
from ..net.network import SensorNetwork
from ..obs import instrument as _inst
from ..obs import state as _obs
from ..obs.spans import CountedHandler, span as _span
from ..net.node import Node
from ..streams.tuples import ArgsTuple, StreamTuple, TupleID
from ..streams.windows import SlidingWindow, WindowParams
from .derived import DerivedFact, DerivedTable, FactRef, ResultMsg, WireDerivation
from .plans import DistributedPlan, bind, conclude, matching, probe
from .regions import RegionStrategy, make_strategy

#: A sliding window narrower than this is treated as semantically
#: finite: the rules feeding a re-consumed derived stream then keep
#: Theorem 3's delay (derived tuples are stamped at first derivation,
#: which streaming moves earlier — a finite window could cut
#: differently across modes).  The default window (1e9) is far
#: above it, i.e. effectively infinite.
_PIPELINE_WINDOW_FLOOR = 1e6

# ---------------------------------------------------------------------------
# Wire structures
# ---------------------------------------------------------------------------


class Partial:
    """A partial result: the rule's registers (``mask`` says which are
    bound, see :meth:`CompiledPlan.step`) + the fact used per positive
    subgoal, in body order (None where the subgoal is still unmatched;
    ``missing`` counts those).  Immutable, so its size is computed once;
    ``used`` is its dedup key: equal facts in equal positions are one
    partial result.  ``check`` is what its token's seed deferred (see
    :meth:`CompiledPlan.seed`), None when nothing was: the trigger's
    computed arguments, compared once the match is complete."""

    __slots__ = ("regs", "mask", "used", "check", "missing", "_size")

    def __init__(self, regs: list, mask: int, used: Tuple[Optional[FactRef], ...],
                 check: Optional[tuple]):
        self.regs = regs
        self.mask = mask
        self.used = used
        self.check = check
        missing = size = 0
        for f in used:
            if f is None:
                missing += 1
            else:
                size += f.size()
        self.missing = missing
        self._size = size or 1

    def size(self) -> int:
        return self._size


class Candidate:
    """A complete positive join awaiting negation checks along the path:
    a derivation to add once no blocker is found (a subtraction needs
    no check and is emitted at once)."""

    __slots__ = ("head_args", "derivation", "neg_patterns", "_size")

    def __init__(
        self,
        head_args: ArgsTuple,
        derivation: WireDerivation,
        neg_patterns: List[Tuple[str, tuple]],
    ):
        self.head_args = head_args
        self.derivation = derivation
        #: (predicate, probe) per negated subgoal, see repro.dist.plans.
        self.neg_patterns = neg_patterns
        self._size = sum(term_size(a) for a in head_args) + derivation.size()

    def size(self) -> int:
        return self._size


class GatherMsg(Message):
    """A derived fact being reported to a sink node."""

    def __init__(self, pred: str, args: ArgsTuple, request_id: int):
        super().__init__(
            "gpa_gather",
            payload_symbols=1 + sum(term_size(a) for a in args),
            category="gather",
        )
        self.pred = pred
        self.args = args
        self.request_id = request_id


class StoreMsg(Message):
    """Storage-phase message: replicate (or deletion-mark) a tuple along
    the remainder of ``path``."""

    def __init__(self, op: str, tup: StreamTuple, path: List[int], del_ts: Optional[float]):
        super().__init__("gpa_store", payload_symbols=tup.size(), category="storage")
        self.op = op          # 'ins' | 'del'
        self.tup = tup
        self.path = path
        self.del_ts = del_ts
        #: Fault-tolerant mode: hops re-targeted after a terminal failure.
        self.retargets = 0


class JoinToken(Message):
    """Join-phase message traversing a join region.  The header —
    ``rule_id``, ``op``, ``update_ts``, ``trigger``, ``exclude_id``,
    ``retro``, ``region``, ``stages`` — is never written after
    construction: parked partials refer to their token for it, and a
    continuation token shares its parent's ``region`` list.

    ``path`` is the itinerary still ahead, every pass over the region
    laid end to end; ``stages`` is ``((end, joins), ...)``: a visit with
    at least ``end`` members still ahead belongs to the stage and may
    join the subgoals in ``joins`` (None: any; empty: none, a return
    pass that only strikes candidates).  A member skipped dead,
    substituted or put back by a re-target is a position like any
    other, so no fault moves a turn."""

    def __init__(
        self,
        rule_id: int,
        op: str,
        update_ts: float,
        trigger: FactRef,
        trigger_negated: bool,
        partials: List[Partial],
        candidates: List[Candidate],
        path: List[int],
        exclude_id: Optional[TupleID],
        region: Optional[List[int]] = None,
        retro: bool = False,
        stages: Tuple[Tuple[int, Optional[tuple]], ...] = ((0, None),),
    ):
        super().__init__("gpa_join", payload_symbols=1, category="join")
        self.rule_id = rule_id
        self.op = op                  # 'ins' | 'del' (the triggering update)
        self.retro = retro            # a pipelined deletion, see _launch_token
        self.update_ts = update_ts
        self.trigger = trigger
        self.trigger_negated = trigger_negated
        self.partials = partials
        self.candidates = candidates
        self.path = path
        self.exclude_id = exclude_id
        self.region = region or []
        self.stages = stages
        #: Fault-tolerant mode: hops re-targeted after a terminal failure.
        self.retargets = 0

    def refresh_size(self) -> None:
        self.payload_symbols = (
            1
            + sum([p._size for p in self.partials])
            + sum([c._size for c in self.candidates])
        )

    def header(self) -> tuple:
        """The never-written fields as a key (``parked_seen``)."""
        return (
            self.rule_id, self.op, self.update_ts, self.trigger,
            self.exclude_id, self.retro,
        )

    def sees(self, tup: StreamTuple, window: float) -> bool:
        """Theorem 3's visibility rule, consulted nowhere else: the
        update joins ``tup`` only if it was generated in ``(update_ts -
        window, update_ts]`` and not deleted before ``update_ts`` —
        never the tuple a negated deletion excludes, never its own
        deleted trigger (which joins only as the trigger), and for a
        retro token every other resident replica.  The timestamps are
        data, not arrival times, so a replica landing after the token
        has passed (pipelined mode) gets the barrier schedule's answer."""
        if (
            self.exclude_id is not None
            and tup.tuple_id == self.exclude_id
            and tup.predicate == self.trigger.pred
        ):
            return False
        if (
            self.op == "del"
            and not self.trigger_negated
            and tup.tuple_id == self.trigger.tuple_id
        ):
            return False
        return self.retro or tup.is_live_at(self.update_ts, window)

    def stamp(self, join_delay: float) -> float:
        """What this update's results rank by at their hash node
        (:meth:`DerivedFact.apply`): its timestamp — except that a
        deleted positive support must outrank every addition naming it,
        and a pipelined partner generated before the deletion mark was
        everywhere, ``update_ts + tau_s + tau_c`` (as argued in
        :meth:`GPAEngine._horizon`), adds under its own, later stamp.
        The deleted tuple's id never returns, so over-ranking its
        subtractions cancels nothing."""
        if self.op == "del" and not self.trigger_negated:
            return self.update_ts + join_delay
        return self.update_ts


class MigrateMsg(Message):
    """Adaptive placement (E21): one derived fact's whole state — its
    tuple id and its ledger, a bag of ``(op, derivation, stamp)``
    updates, tombstones included (unsized) — shipped from its old home
    to the node its storage region was just pinned to."""

    def __init__(
        self,
        pred: str,
        args: ArgsTuple,
        updates: List[Tuple[str, "WireDerivation", float]],
        tuple_id: Optional[TupleID],
    ):
        size = (
            1
            + sum(term_size(a) for a in args)
            + sum(d.size() for op, d, _stamp in updates if op == "add")
        )
        super().__init__(
            "gpa_migrate", payload_symbols=size, category="placement"
        )
        self.pred = pred
        self.args = args
        self.updates = updates
        self.tuple_id = tuple_id


# ---------------------------------------------------------------------------
# Per-node runtime state
# ---------------------------------------------------------------------------


class NodeRuntime:
    """The generic join component + derived-table manager of one node
    (Fig. 3)."""

    def __init__(self, engine: "GPAEngine", node: Node):
        self.engine = engine
        self.node = node
        self.windows: Dict[str, SlidingWindow] = {}
        self.derived = DerivedTable()
        #: Pipelined mode: incomplete partial results left behind here,
        #: each a ``(token, partial)`` pair listed under every predicate
        #: whose arrival could extend it (a late store does, and spawns
        #: a continuation token), plus a dedup set so re-traversals
        #: never double-park the same partial.
        self.parked: Dict[str, List[Tuple[JoinToken, Partial]]] = {}
        self.parked_seen: Set[tuple] = set()

    def window(self, pred: str) -> SlidingWindow:
        win = self.windows.get(pred)
        if win is None:
            win = SlidingWindow(pred, self.engine.window_params)
            self.windows[pred] = win
        return win

    def memory_tuples(self, include_derived: bool = True) -> int:
        """Resident window replicas and parked partials (one listed
        under two predicates is one), plus — unless ``include_derived``
        is False — the derived result table and the tombstones its
        facts still hold."""
        parked = {id(e) for entries in self.parked.values() for e in entries}
        resident = sum(w.memory_tuples() for w in self.windows.values()) + len(parked)
        if include_derived:
            resident += self.derived.memory_tuples()
        return resident


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class GPAEngine:
    """Distributed deductive engine over GPA join strategies.

    ::

        net = GridNetwork(8)
        engine = GPAEngine(parse_program(text), net, strategy="pa")
        engine.install()
        engine.publish(node_id, "veh", ("enemy", (3, 4), 17))
        net.run_all()
        engine.rows("uncov")
    """

    def __init__(
        self,
        program,
        network: SensorNetwork,
        strategy: str = "pa",
        window: float = 1e9,
        registry: Optional[BuiltinRegistry] = None,
        allow_local_nonrecursive: bool = False,
        scheme: str = "one-pass",
        fault_tolerant: bool = False,
        tenant: Optional[str] = None,
        ght=None,
        mode: str = "barrier",
        **strategy_kwargs,
    ):
        if scheme not in ("one-pass", "multi-pass"):
            raise PlanError(f"unknown join scheme {scheme!r}")
        if mode not in ("barrier", "pipelined"):
            raise PlanError(f"unknown evaluation mode {mode!r}")
        self.scheme = scheme
        #: Multi-tenant serving (E21): a tenant id namespaces this
        #: engine's handler kinds (several engines share one network
        #: without colliding) and tags its messages for per-tenant
        #: accounting.  ``ght`` substitutes a tenant keyspace partition
        #: (:meth:`repro.net.ght.GeographicHash.partition`) for the
        #: shared hash.  Both default off; the single-tenant paths are
        #: byte-identical to the pre-serving engine.
        self.tenant = tenant
        self.ght = ght if ght is not None else network.ght
        self._kind_suffix = "" if tenant is None else f"@{tenant}"
        #: Fault-tolerant mode (E20): phase paths skip dead members,
        #: dead join members are substituted by live storage-region
        #: mates, results fan out to the GHT replica set, and the
        #: recovery hooks (anti-entropy, soft-state refresh) are live.
        #: Off by default — the default paths are byte-identical to the
        #: pre-fault engine.
        self.fault_tolerant = fault_tolerant
        #: Recovery counters (fault-tolerant mode only).
        self.ght_failovers = 0
        self.region_repairs = 0
        self.resyncs = 0
        if isinstance(program, str):
            program = parse_program(program, registry) if registry else parse_program(program)
        self.plan = DistributedPlan(program, registry, allow_local_nonrecursive)
        if (self.plan.analysis.program_class is ProgramClass.XY_STRATIFIED
                and not allow_local_nonrecursive):
            # A blocker derived in its fact's stage can land after it.
            raise PlanError("GPAEngine does not evaluate XY-stratified programs exactly; "
                            "run it on LocalizedEngine (or pass allow_local_nonrecursive=True)")
        self.registry = self.plan.registry
        #: Valuation predicate -> its rule's fold; node id -> the stamp
        #: of the last group row update it folded.
        self._folds: Dict[str, Aggregate] = {}
        self._fold_stamps: Dict[int, float] = {}
        for rp in self.plan.rule_plans:
            if rp.aggregate is not None:
                self._folds[rp.aggregate.valuation] = rp.aggregate
        self.network = network
        if isinstance(strategy, RegionStrategy):
            self.strategy = strategy
            self.strategy_name = type(strategy).__name__
        else:
            self.strategy = make_strategy(strategy, network, **strategy_kwargs)
            self.strategy_name = strategy
        hop = network.radio.max_hop_delay
        tau_s = self.strategy.storage_hops_bound() * hop * 1.25 + hop
        #: Rules the multiple-pass scheme joins (Section III-A): one
        #: traversal per stream they join, in plan order.  A negating
        #: rule walks out and back instead; with two streams there is
        #: one left to join, so the schemes coincide.
        self._multi_pass: Set[int] = {
            rp.rule_id for rp in self.plan.rule_plans
            if scheme == "multi-pass" and not rp.negative and len(rp.positive) > 2
        }
        # Negation rules traverse the join region out and back (x2);
        # a multi-pass rule traverses it once per joined stream.
        passes = max(
            (len(self.plan.by_id[rid].positive) for rid in self._multi_pass), default=2
        )
        tau_j = passes * self.strategy.join_hops_bound() * hop * 1.25 + hop
        self.window_params = WindowParams(
            window=window, tau_s=tau_s, tau_c=network.tau_c, tau_j=tau_j
        )
        #: Per rule (by id): None when it streams, else why it keeps
        #: Theorem 3's delay (:func:`rule_releases`; the ``mode``
        #: argument is a ceiling).  ``self.mode`` is the effective mode;
        #: with ``_streamed_rules`` empty every pipelined code path is
        #: dormant, so barrier runs are byte-identical to the
        #: pre-pipelining engine.
        self.releases = rule_releases(
            self.plan.program, mode, self._multi_pass,
            windowed={p for p in self.plan.idb if self.plan.consumed(p)}
            if window < _PIPELINE_WINDOW_FLOOR else (),
        )
        self._streamed_rules: Set[int] = {
            rid for rid, why in self.releases.items() if why is None
        }
        self.mode = "pipelined" if self._streamed_rules else "barrier"
        self.streamed_derivations = 0
        if _obs.enabled:
            for why in self.releases.values():
                _inst.coordfree_programs.labels(verdict=why or "stream").inc()
        #: Join-region work: window rows compared with a subgoal, rows
        #: that matched, and steps that had to unify structurally
        #: (``match_sequences``, for a subgoal like ``r([H | T])``).
        self.rows_scanned = 0
        self.rows_matched = 0
        self.structural_steps = 0
        #: (predicate, latency) samples: local time at the hash node
        #: minus the triggering update's timestamp, for every first
        #: derivation — the result-freshness metric.
        self.latency_samples: List[Tuple[str, float]] = []
        #: Delivery outcomes of this engine's routed phase messages:
        #: 'delivered' fires when a routed message reaches its
        #: destination node (any mode); 'gave_up' when a hop exhausts
        #: its retry budget (reliable mode only) — the signal that
        #: results may be incomplete despite reliability.
        self.delivery_status: Dict[str, int] = {"delivered": 0, "gave_up": 0}
        #: Why give-ups happened: 'dead' (next hop down when the retry
        #: budget ran out), 'budget' (link just too lossy), 'no_route'
        #: (no live path at all).
        self.give_up_reasons: Dict[str, int] = {}
        self._gather_requests: Dict[int, Set[tuple]] = {}
        self._gather_counter = itertools.count()
        self.runtimes: Dict[int, NodeRuntime] = {}
        self._installed = False
        _inst.own(self)

    def tallies(self):
        """Folded telemetry counts (:func:`repro.obs.instrument.own`)."""
        yield _inst.pipeline_streamed, (), self.streamed_derivations
        yield _inst.ght_failovers, (), self.ght_failovers
        yield _inst.ght_resyncs, (), self.resyncs

    # -- installation -----------------------------------------------------

    def install(self) -> "GPAEngine":
        """Register handlers on every node (the 'code download' step of
        the system architecture, Fig. 2)."""
        if self._installed:
            return self
        handlers = [
            ("gpa_store", "storage", self._on_store),
            ("gpa_join", "join", self._on_join),
            ("gpa_result", "result", self._on_result),
            ("gpa_gather", "gather", self._on_gather),
            ("gpa_migrate", "placement", self._on_migrate),
        ]
        wrapped = [
            (kind + self._kind_suffix, CountedHandler(
                handler, _inst.gpa_messages.name, f"gpa.{phase}",
                {"phase": phase, "strategy": self.strategy_name},
            ))
            for kind, phase, handler in handlers
        ]
        for node in self.network.nodes.values():
            runtime = NodeRuntime(self, node)
            self.runtimes[node.id] = runtime
            for kind, handler in wrapped:
                node.register_handler(kind, handler)
        self._installed = True
        return self

    def attach_faults(self, injector) -> "GPAEngine":
        """Subscribe the engine's recovery mechanisms to a
        :class:`~repro.net.faults.FaultInjector`: node recoveries
        trigger anti-entropy re-sync of the recovered replica holder,
        partition heals trigger a soft-state refresh of storage
        regions."""
        self._require_installed()
        injector.subscribe(self._on_fault)
        return self

    def _on_fault(self, event) -> None:
        if event.kind == "recover":
            self._anti_entropy(event.node)
        elif event.kind == "heal":
            self.refresh_soft_state()

    def _track_delivery(self, status: str, reason: str = "") -> None:
        self.delivery_status[status] = self.delivery_status.get(status, 0) + 1
        if status == "gave_up" and reason:
            self.give_up_reasons[reason] = self.give_up_reasons.get(reason, 0) + 1

    def delivery_report(self) -> Dict[str, object]:
        """Counts of 'delivered'/'gave_up' outcomes for this engine's
        routed phase traffic, plus a ``reason`` breakdown of the
        give-ups ('dead' next hop vs. 'budget' exhaustion on a live but
        lossy link vs. 'no_route').  'gave_up' is only ever non-zero
        with the reliable transport on — unreliable drops vanish
        silently."""
        report: Dict[str, object] = dict(self.delivery_status)
        report["reason"] = dict(self.give_up_reasons)
        return report

    # -- the way out of a node -----------------------------------------------

    def _tag(self, msg: Message, repair: bool = False) -> Message:
        """Namespace a phase message for this engine's tenant: the kind
        suffix routes it to this engine's handlers on shared nodes, the
        ``tenant`` attribute lets the serving layer attribute radio
        traffic per tenant.  Identity (no-op) for single-tenant runs.
        With telemetry on the message is also stamped with its launch
        time for :meth:`_observe_phase` — unless it is ``repair``
        traffic, which is message-costed under that category and is no
        phase of its own."""
        if self.tenant is not None:
            msg.kind += self._kind_suffix
            msg.tenant = self.tenant
        if repair:
            msg.category = "repair"
        elif _obs.enabled:
            msg._obs_born = self.network.sim.now
        return msg

    def _post(self, node: Node, target: int, msg: Message, repair: bool = False) -> None:
        """A freshly built message leaves ``node`` for ``target``:
        tagged, handed over in place when the target is the node itself
        (no radio cost, not counted as a delivery), routed otherwise."""
        self._tag(msg, repair)
        if target == node.id:
            node.local_deliver(msg)
        else:
            node.send_routed(target, msg, on_status=self._track_delivery)

    def _observe_phase(self, phase: str, msg: Message) -> None:
        """Record a completed phase's simulated latency (launch →
        completion), if the message was stamped at launch."""
        born = getattr(msg, "_obs_born", None)
        if born is not None:
            _inst.phase_latency.labels(
                phase=phase, strategy=self.strategy_name, mode=self.mode
            ).observe(max(0.0, self.network.sim.now - born))

    # -- publishing base facts ---------------------------------------------

    def publish(self, node_id: int, pred: str, args: Iterable) -> TupleID:
        """A base tuple is sensed/generated at ``node_id`` now."""
        self._require_installed()
        node = self.network.node(node_id)
        tid = TupleID(node_id, node.clock.now(), node.next_seq())
        tup = StreamTuple(pred, args, tid)
        self._start_phases(node_id, tup, op="ins", del_ts=None)
        return tid

    def retract(self, node_id: int, pred: str, args: Iterable, tuple_id: TupleID) -> None:
        """The source node deletes one of its tuples (Section IV-A:
        deletion happens only at the source node)."""
        self._require_installed()
        if tuple_id.source != node_id:
            raise NetworkError(
                f"tuple {tuple_id!r} can only be deleted at its source node"
            )
        node = self.network.node(node_id)
        del_ts = node.clock.now()
        tup = StreamTuple(pred, args, tuple_id)
        self._start_phases(node_id, tup, op="del", del_ts=del_ts)

    def _require_installed(self) -> None:
        if not self._installed:
            raise NetworkError("engine.install() must be called first")

    # -- phase orchestration -------------------------------------------------

    def _live_mate(self, member: int, repair: Optional[str] = None) -> Optional[int]:
        """The first live storage-region mate of ``member`` (nearest
        first), None when the strategy has no such structure or every
        mate is dead.  A mate holds the member's replicated window —
        PA's invariant, every storage region meets every join region —
        so it can stand in for it; ``repair`` names the stand-in for the
        repair counters."""
        radio = self.network.radio
        for mate in self.strategy.join_alternates(member):
            if radio.is_alive(mate):
                if repair is not None:
                    self.region_repairs += 1
                    if _obs.enabled:
                        _inst.tree_repairs.labels(kind=repair).inc()
                return mate
        return None

    def _next_member(self, path: List[int], substitute: bool) -> Optional[int]:
        """Pop the next region member to visit — exactly ``path.pop(0)``
        outside fault-tolerant mode.  Inside it a dead storage member is
        skipped (replicas continue past it; its copy is unreachable
        until it recovers and re-syncs) and a dead join member is
        *substituted* by a live storage-region mate, or skipped when it
        has none.  None when the path runs out."""
        if not self.fault_tolerant:
            return path.pop(0)
        radio = self.network.radio
        while path:
            nxt = path.pop(0)
            if radio.is_alive(nxt):
                return nxt
            if substitute:
                mate = self._live_mate(nxt, "join")
                if mate is not None:
                    return mate
        return None

    def _advance(self, node: Node, msg, nxt: Optional[int] = None) -> bool:
        """Move a storage message or a join token from ``node`` to the
        next member of its region (``nxt`` when the caller popped it
        already); False when the path is exhausted.

        In fault-tolerant mode the delivery callback is a failure
        detector: a hop that terminally fails (the member died with the
        message in flight, or no live route remains) puts the member
        back on the path and walks on from the sending member — the
        next pop skips the dead member or substitutes a live mate, so
        the traversal, with every partial result a token carries,
        continues past the gap instead of silently truncating.  Past
        its budget of re-targets (read when the failure is reported)
        the message is left stranded."""
        is_token = isinstance(msg, JoinToken)
        if nxt is None:
            nxt = self._next_member(msg.path, is_token) if msg.path else None
            if nxt is None:
                return False
        if is_token:
            msg.refresh_size()
        if not self.fault_tolerant:
            node.send_routed(nxt, msg, on_status=self._track_delivery)
            return True

        def outcome(status: str, reason: str = "") -> None:
            self._track_delivery(status, reason)
            if status != "gave_up":
                return
            msg.retargets += 1
            members = max(1, len(msg.region)) if is_token else len(msg.path) + 2
            if msg.retargets > 2 * members:
                return  # stranded: repeated re-targets keep failing
            msg.path.insert(0, nxt)
            if is_token:
                self._continue_token(node, msg)
            else:
                self._advance(node, msg)

        node.send_routed(nxt, msg, on_status=outcome)
        return True

    def _continue_token(self, node: Node, token: JoinToken) -> None:
        """Move a join token to its next (live) member, or finish the
        traversal at ``node`` when the path is exhausted."""
        if self._advance(node, token):
            return
        rp = self.plan.by_id[token.rule_id]
        for cand in token.candidates:
            self._emit(node, rp.head.predicate, cand.head_args, cand.derivation,
                       "add", token.stamp(self.window_params.join_delay))
        token.candidates = []
        token.partials = []
        if _obs.enabled:
            self._observe_phase("join", token)

    def _start_phases(
        self, node_id: int, tup: StreamTuple, op: str, del_ts: Optional[float]
    ) -> None:
        runtime = self.runtimes[node_id]
        window = runtime.window(tup.predicate)
        node = self.network.node(node_id)
        if op == "ins":
            fresh = window.store(tup)
            if fresh and self._streamed_rules:
                # Pipelined: the origin is a join-region member too —
                # a token parked here earlier may be waiting for this
                # very tuple.
                self._pipeline_catchup(node, runtime, tup)
        else:
            window.mark_deleted(tup.tuple_id, del_ts)
        window.expire(node.clock.now())
        self._replicate(node, op, tup, del_ts)

        # Join phase, one launch per release time that has a rule: after
        # tau_s + tau_c (Theorem 3's delay) — except that in pipelined
        # mode the streamed rules launch in the same causal chain as the
        # store.  Negation rules always keep the delay: their stratum's
        # deletions and blocker stores must be placed before they
        # anti-join.
        pos = self.plan.positive_triggers.get(tup.predicate, ())
        releases = {rp.rule_id in self._streamed_rules for rp, _ in pos}
        if tup.predicate in self.plan.negative_triggers:
            releases.add(False)
        update_ts = tup.generation_ts if op == "ins" else del_ts
        for streamed in sorted(releases, reverse=True):
            self.network.sim.schedule(
                0.0 if streamed else self.window_params.join_delay,
                functools.partial(
                    self._launch_join_phases, node_id, tup, op, update_ts, streamed
                ),
            )

    def _replicate(
        self, node: Node, op: str, tup: StreamTuple, del_ts: Optional[float], repair: bool = False
    ) -> None:
        """Storage phase: replicate (or deletion-mark) ``tup`` from
        ``node`` along its storage region.  A path with no live member
        costs nothing, not even a message id, and the first hop leaves
        through :meth:`_advance` like every later one — re-targeted if
        it fails."""
        for path in self.strategy.storage_paths(node.id):
            path = list(path)
            first = self._next_member(path, False)
            if first is not None:
                self._advance(node, self._tag(StoreMsg(op, tup, path, del_ts), repair), first)

    def _launch_join_phases(
        self, node_id: int, tup: StreamTuple, op: str, update_ts: float, streamed: bool
    ) -> None:
        """Launch the tokens of the rules ``tup`` triggers that are
        released now: the streamed ones, or all the others (negation
        rules are never streamed)."""
        if self.fault_tolerant and not self.network.radio.is_alive(node_id):
            # The origin died while the join delay elapsed — but its
            # storage-region mates hold the trigger replica, and every
            # join region meets every storage region (PA's invariant),
            # so a live mate can run the phase in its stead (its own
            # join region is just as valid a traversal).
            node_id = self._live_mate(node_id, "launch")
            if node_id is None:
                return  # no region structure (or the whole row is dead)
        trigger = FactRef(tup.predicate, tup.args, tup.tuple_id)
        for rp, occ in self.plan.positive_triggers.get(tup.predicate, ()):
            if (rp.rule_id in self._streamed_rules) == streamed:
                self._launch_token(node_id, rp, occ, trigger, False, op, update_ts)
        if not streamed:
            for rp, occ in self.plan.negative_triggers.get(tup.predicate, ()):
                self._launch_token(node_id, rp, occ, trigger, True, op, update_ts)

    def _seed(self, rp: CompiledPlan, occurrence: int, trigger: FactRef, negated: bool) -> Optional[Partial]:
        """The partial result a token starts with: the triggering
        subgoal matched against the update (:meth:`CompiledPlan.seed`),
        None when it does not match.  Variables local to a triggering
        negated subgoal (e.g. wildcards) stay free, so blocker
        re-checks range over every live tuple of the stream, not just
        the one that triggered."""
        seeded = rp.seed(occurrence, trigger.args, self.registry, negated)
        if seeded is None:
            return None
        regs, mask, check = seeded
        used = [None] * len(rp.positive)
        if not negated:
            used[occurrence] = trigger
        return Partial(regs, mask, tuple(used), check)

    def _launch_token(
        self,
        node_id: int,
        rp: CompiledPlan,
        occurrence: int,
        trigger: FactRef,
        negated: bool,
        op: str,
        update_ts: float,
    ) -> None:
        partial = self._seed(rp, occurrence, trigger, negated)
        if partial is None:
            return  # the update does not even match the subgoal pattern
        exclude = trigger.tuple_id if (negated and op == "del") else None
        region = list(self.strategy.join_path(node_id))
        path = list(region)
        stages = ((0, None),)
        turn = len(region) - 1  # members of every leg after the first
        needs_full_anti_join = bool(rp.negative) and (
            (not negated and op == "ins") or (negated and op == "del")
        )
        if needs_full_anti_join:
            # Out-and-back traversal: a candidate born anywhere on the
            # forward pass is checked against every node of the region
            # on the way back (blockers may be stored behind it).
            path += region[-2::-1]
            stages = ((turn, None), (0, ()))
        elif rp.rule_id in self._multi_pass:
            # Multiple-pass scheme (Section III-A): each traversal joins
            # one stream, in plan order (the trigger's occurrence is
            # already covered), with the partial results of the one
            # before, walking the region back and forth.
            joins = [i for i in range(len(rp.positive)) if i != occurrence]
            for leg in range(1, len(joins)):
                path += region[-2::-1] if leg % 2 else region[1:]
            stages = tuple(
                (turn * (len(joins) - 1 - leg), (idx,))
                for leg, idx in enumerate(joins)
            )
        # Pipelined deletions on streamed rules go out as retro tokens:
        # they match every resident replica (live, deleted, any
        # timestamp) and subtract each derivation using the deleted
        # trigger — all semantically dead, so over-matching is sound —
        # including adds that raced ahead of the deletion mark; parked
        # retro partials keep subtracting as late partners arrive.
        retro = (
            not negated
            and op == "del"
            and rp.rule_id in self._streamed_rules
        )
        token = self._tag(JoinToken(
            rule_id=rp.rule_id,
            op=op,
            update_ts=update_ts,
            trigger=trigger,
            trigger_negated=negated,
            partials=[partial],
            candidates=[],
            path=path,
            exclude_id=exclude,
            region=region,
            retro=retro,
            stages=stages,
        ))
        node = self.network.node(node_id)
        first = self._next_member(token.path, True)
        if first is None:
            return  # the whole join region (and every mate) is dead
        if first == node_id:
            node.local_deliver(token)
        else:
            self._advance(node, token, first)

    # -- handlers --------------------------------------------------------------

    def _on_store(self, node: Node, msg: StoreMsg) -> None:
        runtime = self.runtimes[node.id]
        window = runtime.window(msg.tup.predicate)
        if msg.op == "ins":
            # Store an independent replica (avoid shared mutable state
            # between nodes — a real network serializes anyway).
            replica = msg.tup.replica()
            if window.store(replica) and self._streamed_rules:
                self._pipeline_catchup(node, runtime, replica)
        else:
            window.mark_deleted(msg.tup.tuple_id, msg.del_ts)
        window.expire(node.clock.now())
        if not self._advance(node, msg) and _obs.enabled:
            self._observe_phase("storage", msg)

    def _on_join(self, node: Node, token: JoinToken) -> None:
        rp = self.plan.by_id[token.rule_id]
        runtime = self.runtimes[node.id]
        before = (self.rows_scanned, self.rows_matched) if _obs.enabled else None
        if token.candidates:
            token.candidates = [
                c for c in token.candidates
                if not self._blocked_here(runtime, token, c)
            ]
        # The visit's stage is read off the itinerary still ahead; where
        # a stage ends the same node opens the next one too (it may hold
        # the next stream's replicas).  Joining nothing, carry nothing.
        ahead = len(token.path)
        for end, joins in token.stages:
            if end > ahead:
                continue  # a stage that ended behind this visit
            if joins == ():
                token.partials = []
            else:
                self._extend_partials(runtime, rp, token, node, joins)
            if end < ahead:
                break
        # Pipelined: whatever is still incomplete stays parked here so
        # replicas that arrive after the token has passed can extend it.
        if token.rule_id in self._streamed_rules and token.partials:
            self._park_partials(runtime, rp, token)
        if before is not None and self.rows_scanned != before[0]:
            _inst.join_selectivity.labels(rule=rp.label).observe(
                (self.rows_matched - before[1]) / (self.rows_scanned - before[0])
            )
        # End of the join region (path exhausted): emit surviving
        # candidates, discard the remaining partial results (Section
        # III-A).  Both that and the forward-to-next-member move live in
        # _continue_token so in-flight failure recovery can re-enter it.
        self._continue_token(node, token)

    def _matches(self, runtime: NodeRuntime, token: JoinToken, pred: str, pattern: tuple) -> list:
        """``matching`` over the replicas of ``pred`` stored here, in
        window order, cut down to those visible to the token's update —
        match first (few rows do), Theorem 3 liveness second."""
        win = runtime.windows.get(pred)
        if win is None:
            return ()
        found = matching(pattern, win)
        self.rows_scanned += len(win)
        self.rows_matched += len(found)
        if pattern[-1] is not None:  # the normalized match_sequences pattern
            self.structural_steps += 1
        if found:
            window = self.window_params.window
            found = [m for m in found if token.sees(m[0], window)]
        return found

    # -- pipelined mode: parked partials and continuations -------------------

    def _park_partials(self, runtime: NodeRuntime, rp: CompiledPlan, token: JoinToken) -> None:
        """Leave a streamed token's incomplete partials behind at this
        join-region node.  A replica arriving later extends them (the
        storage and join phases of one causal chain may interleave
        arbitrarily without the barrier delay).  ``parked_seen`` keys on
        the full token context so continuation re-traversals do not
        double-park."""
        header = token.header()
        for partial in token.partials:
            key = header + (partial.used,)
            if key in runtime.parked_seen:
                continue
            runtime.parked_seen.add(key)
            wanted = {
                lit.predicate for lit, f in zip(rp.positive, partial.used)
                if f is None
            }
            for pred in wanted:
                runtime.parked.setdefault(pred, []).append((token, partial))

    def _horizon(self, now: float) -> float:
        """The update timestamp at or before which, at local time
        ``now``, no join can still extend a parked partial or produce an
        addition a tombstone must cancel.

        An update with timestamp tau joins only tuples its token
        :meth:`~JoinToken.sees`.  For an ordinary update those were
        generated by tau, so by tau + tau_s + tau_c their replica is
        here or never will be (why barrier mode may join then).  A retro
        update — the deletion, at tau, of a tuple T — must also subtract
        the adds that raced T's deletion mark: a partner meets an
        unmarked replica of T only if it was generated before the mark
        was everywhere, tau + tau_s + tau_c, and its own replica lands
        here at most tau_s + tau_c later.  ``storage_time`` past tau,
        what :meth:`SlidingWindow.expire` grants the trigger itself,
        covers both where tau_j + tau_w >= tau_s + tau_c (PA on a grid);
        a strategy with a long storage and a short join region gets the
        larger bound.  At the default window nothing is ever that old."""
        params = self.window_params
        return now - max(params.storage_time, 2 * params.join_delay)

    def _reclaim_parked(self, runtime: NodeRuntime, entries: list, horizon: float) -> int:
        """Drop from ``entries`` (one of ``runtime.parked``'s lists) the
        partials of updates at or before ``horizon`` (:meth:`_horizon`),
        with their ``parked_seen`` keys; returns the keys dropped."""
        stale = [e for e in entries if e[0].update_ts <= horizon]
        if not stale:
            return 0
        entries[:] = [e for e in entries if e[0].update_ts > horizon]
        before = len(runtime.parked_seen)
        runtime.parked_seen.difference_update(
            token.header() + (partial.used,) for token, partial in stale
        )
        return before - len(runtime.parked_seen)

    def _pipeline_catchup(self, node: Node, runtime: NodeRuntime, tup: StreamTuple) -> None:
        """A replica just landed: extend every parked partial waiting on
        its predicate (and reclaim the ones too old to be waiting for
        anything).  Extensions re-enter the join machinery as
        continuation tokens, so completions emit and still-incomplete
        combinations traverse (and re-park along) the region."""
        entries = runtime.parked.get(tup.predicate)
        if not entries:
            return
        self._reclaim_parked(runtime, entries, self._horizon(node.clock.now()))
        for entry in list(entries):
            self._extend_parked(node, runtime, entry, tup)

    def _extend_parked(
        self, node: Node, runtime: NodeRuntime, entry: tuple, tup: StreamTuple
    ) -> None:
        token, partial = entry
        if not token.sees(tup, self.window_params.window):
            return
        rp = self.plan.by_id[token.rule_id]
        extended: List[Partial] = []
        for idx, lit in enumerate(rp.positive):
            if partial.used[idx] is not None or lit.predicate != tup.predicate:
                continue
            step = rp.step(idx, partial.mask)
            for match in matching(probe(step, partial.regs, self.registry), (tup,)):
                extended.append(self._extended(partial, idx, step, *match))
        if not extended:
            return
        done = not any(p.missing for p in extended)
        self._post(node, node.id, JoinToken(
            rule_id=token.rule_id,
            op=token.op,
            update_ts=token.update_ts,
            trigger=token.trigger,
            trigger_negated=False,
            partials=extended,
            candidates=[],
            path=[] if done else [n for n in token.region if n != node.id],
            exclude_id=token.exclude_id,
            region=token.region,
            retro=token.retro,
        ))

    def _extend_partials(
        self,
        runtime: NodeRuntime,
        rp: CompiledPlan,
        token: JoinToken,
        node: Node,
        allowed: Optional[Set[int]] = None,
    ) -> None:
        seen: Set[tuple] = {p.used for p in token.partials}
        complete: List[Partial] = []
        # A freshly launched token may carry an already-complete partial
        # (single-subgoal rule): convert it here, once, and stop
        # forwarding it.
        still_partial = []
        for p in token.partials:
            if not p.missing:
                complete.append(p)
            else:
                still_partial.append(p)
        token.partials = still_partial
        queue = list(token.partials)
        while queue:
            partial = queue.pop()
            used = partial.used
            for idx in range(len(rp.positive)):
                if used[idx] is not None:
                    continue
                if allowed is not None and idx not in allowed:
                    continue
                step = rp.step(idx, partial.mask)
                pattern = probe(step, partial.regs, self.registry)
                for match in self._matches(runtime, token, step.pred, pattern):
                    new = self._extended(partial, idx, step, *match)
                    if new.used in seen:
                        continue
                    seen.add(new.used)
                    if not new.missing:
                        complete.append(new)
                    else:
                        queue.append(new)
                        token.partials.append(new)
        for partial in complete:
            self._complete_partial(runtime, rp, token, partial, node)

    def _extended(self, partial: Partial, idx: int, step, tup, bindings) -> Partial:
        """``partial`` joined with a replica its subgoal ``idx`` matched."""
        used = partial.used
        return Partial(
            bind(step, partial.regs, tup, bindings), step.after,
            used[:idx] + (FactRef(step.pred, tup.args, tup.tuple_id),) + used[idx + 1:],
            partial.check,
        )

    def _complete_partial(
        self,
        runtime: NodeRuntime,
        rp: CompiledPlan,
        token: JoinToken,
        partial: Partial,
        node: Node,
    ) -> None:
        # Built-ins run locally once all positive subgoals are bound.
        builtins, head, negs = rp.conclusion(partial.mask)
        regs = partial.regs[:]  # assignments write registers
        head_args = conclude(builtins, head, regs, self.registry,
                             partial.check, token.trigger.args)
        if head_args is None:
            return
        derivation = WireDerivation(rp.rule_id, partial.used)
        result_op = self._result_op(token)
        neg_patterns = [
            (step.pred, probe(step, regs, self.registry)) for step in negs
        ]
        if rp.negative and result_op == "add":
            # An inserted positive support, or the deletion of a blocker
            # (a negated trigger implies a negated subgoal): the derivation
            # must pass every negated subgoal along the region — for a
            # deleted blocker including the trigger's own stream, minus
            # the deleted tuple (exclude_id).
            cand = Candidate(head_args, derivation, neg_patterns)
            if not self._blocked_here(runtime, token, cand):
                token.candidates.append(cand)
            return
        # A subtraction — a deleted positive support, or a new blocker
        # killing matching derivations — needs no negation checks
        # (idempotent); a rule without negation has none to make.
        if token.rule_id in self._streamed_rules:
            self.streamed_derivations += 1
        self._emit(node, rp.head.predicate, head_args, derivation, result_op,
                   token.stamp(self.window_params.join_delay))

    def _result_op(self, token: JoinToken) -> str:
        if token.trigger_negated:
            return "sub" if token.op == "ins" else "add"
        return "add" if token.op == "ins" else "sub"

    def _blocked_here(self, runtime: NodeRuntime, token: JoinToken, cand: Candidate) -> bool:
        return any(
            self._matches(runtime, token, pred, pattern)
            for pred, pattern in cand.neg_patterns
        )

    def _emit(
        self,
        node: Node,
        pred: str,
        head_args: ArgsTuple,
        derivation: WireDerivation,
        op: str,
        ts: float,
    ) -> None:
        """Send a result to the home of ``pred(head_args)``, keyed by
        :meth:`_key_args` (a valuation's group)."""
        key = self._key_args(pred, head_args)
        if not self.fault_tolerant:
            targets = (self.ght.node_for_fact(pred, key),)
        else:
            # Fan out to every live replica-set member; the current
            # primary (first live member) is the one that will publish
            # downstream (see _on_result).  With the whole replica set
            # down the result is lost.
            radio = self.network.radio
            replica_set = self.ght.nodes_for_fact(pred, key)
            targets = [r for r in replica_set if radio.is_alive(r)]
            if targets and targets[0] != replica_set[0]:
                self.ght_failovers += 1
        for target in targets:
            self._post(node, target, ResultMsg(pred, head_args, derivation, op, ts))

    # -- derived table management ------------------------------------------------

    def _on_result(self, node: Node, msg: ResultMsg) -> None:
        if _obs.enabled:
            self._observe_phase("result", msg)
        if self.tenant is not None and not self.fault_tolerant:
            # Serving mode: the adaptive placer may re-home a key while
            # a result is in flight.  A result that lands off its
            # current home chases the placement once, so migrated
            # regions never fragment.
            home = self.ght.node_for_fact(msg.pred, self._key_args(msg.pred, msg.args))
            if home != node.id and not msg.re_homed:
                msg.re_homed = True
                node.send_routed(home, msg, on_status=self._track_delivery)
                return
        derived = self.runtimes[node.id].derived
        fact = derived.update(msg.pred, msg.args, msg.op, msg.derivation, msg.stamp)
        # The derivation's flip is the fact's when it is the first live
        # one (after an add) or the last one gone (after a sub).
        if fact is None or len(fact.derivations) != (msg.op == "add"):
            return
        # In fault-tolerant mode every live replica stores the result,
        # but only the *current primary* (first live replica-set
        # member) publishes downstream generations/deletions, folds
        # group rows and records latency — otherwise k replicas would
        # start k derived streams.  Repair (anti-entropy) traffic never
        # publishes: the result had its first derivation long ago.
        aggregate = self._folds.get(msg.pred)
        if fact.visible and aggregate is None:
            fact.tuple_id = TupleID(node.id, node.clock.now(), node.next_minted_seq())
        if msg.category == "repair" or (self.fault_tolerant and node.id != self.ght.primary_for_key(
            self.ght.key_for_fact(msg.pred, self._key_args(msg.pred, msg.args)), self.network.radio
        )):
            return
        if aggregate is not None:
            # Each row move: a result of the fold's derivation, stamped
            # strictly increasing here.
            fold = WireDerivation(aggregate.rule_id, ())
            for op, row in derived.moves(aggregate, msg.args):
                stamp = self._fold_stamps[node.id] = max(node.clock.now(), math.nextafter(
                    self._fold_stamps.get(node.id, -math.inf), math.inf))
                self._emit(node, aggregate.head, row, fold, op, stamp)
            return
        if not fact.visible:
            self._publish_derived(node, msg.pred, msg.args, fact, op="del")
            return
        latency = max(0.0, node.clock.now() - msg.stamp)
        self.latency_samples.append((msg.pred, latency))
        if _obs.enabled:
            _inst.result_latency.labels(predicate=msg.pred).observe(latency)
            if self.tenant is not None:
                _inst.tenant_result_latency.labels(tenant=self.tenant).observe(latency)
        self._publish_derived(node, msg.pred, msg.args, fact, op="ins")

    def _key_args(self, pred: str, args: ArgsTuple) -> ArgsTuple:
        """The arguments a derived fact's GHT key is spelled from: a
        valuation's group, any other fact's own."""
        aggregate = self._folds.get(pred)
        return args if aggregate is None else args[:aggregate.width]

    # -- adaptive placement (serving mode, E21) -----------------------------

    def _on_migrate(self, node: Node, msg: MigrateMsg) -> None:
        """Receive a migrated derived fact at its new home: its ledger
        is applied like any other updates, so a duplicate shipment or a
        result that overtook the move changes nothing."""
        fact = self.runtimes[node.id].derived.fact(msg.pred, msg.args)
        for update in msg.updates:
            fact.apply(*update)
        if fact.tuple_id is None:
            fact.tuple_id = msg.tuple_id

    def migrate_derived(self, old_home: int, new_home: int, keys: Set[str]) -> int:
        """Ship every derived fact resident at ``old_home`` whose GHT
        key is in ``keys`` to ``new_home``, deleting the local copy.

        The caller (the adaptive placer) pins the keys first via
        :meth:`~repro.net.ght.GeographicHash.place` and calls this on a
        quiesced network — in-flight results that still race the move
        are chased to the new home by :meth:`_on_result`.  Migration
        traffic is message-costed (category 'placement').  Returns the
        number of facts moved.
        """
        self._require_installed()
        node = self.network.node(old_home)
        moved = self.runtimes[old_home].derived.take(
            lambda pred, args: self.ght.key_for_fact(pred, self._key_args(pred, args)) in keys
        )
        for pred, args, fact in moved:
            self._post(node, new_home, MigrateMsg(
                pred, args, list(fact.ledger.values()), fact.tuple_id
            ))
        return len(moved)

    # -- recovery (fault-tolerant mode) -------------------------------------

    def _anti_entropy(self, recovered: int) -> None:
        """Re-sync a recovered node's soft state from its live peers.

        Two pulls, both idempotent and message-costed (category
        'repair'):

        * **derived facts** — for every visible derived fact whose GHT
          replica set contains the recovered node, the first live
          holder re-sends the fact's derivations as repair results
          under the stamps they are stored with (the receiver's
          ledger absorbs what it had, and keeps what it had cancelled);
        * **base windows** — the recovered node's storage-region mates
          hold exactly the replicated window it missed while it was
          down (PA's rows replicate row-wide), so the nearest live
          mate re-sends whatever tuples the recovered window lacks.
          The lack-check against the recovered window models the
          digest exchange of an anti-entropy pull without flooding
          the simulation with already-held replicas.
        """
        if not self.fault_tolerant:
            return
        ght = self.ght
        radio = self.network.radio
        if not radio.is_alive(recovered):
            return
        if ght.replicas >= 2:
            synced: Set[Tuple[str, ArgsTuple]] = set()
            for runtime in self.runtimes.values():
                holder = runtime.node.id
                if holder == recovered or not radio.is_alive(holder):
                    continue
                for pred, args, fact in runtime.derived.visible():
                    if (pred, args) in synced:
                        continue
                    if recovered not in ght.nodes_for_fact(pred, self._key_args(pred, args)):
                        continue
                    synced.add((pred, args))
                    self.resyncs += 1
                    for ident, derivation in list(fact.derivations.items()):
                        self._post(runtime.node, recovered, ResultMsg(
                            pred, args, derivation, "add", fact.ledger[ident][2],
                        ), repair=True)
        donor = self._live_mate(recovered)
        if donor is None:
            return  # no storage-region structure (or no live mate)
        donor_rt = self.runtimes[donor]
        recovered_rt = self.runtimes[recovered]
        for pred, window in donor_rt.windows.items():
            have = recovered_rt.windows.get(pred)
            for tup in list(window):
                if have is not None and have.get(tup.tuple_id) is not None:
                    continue
                self.resyncs += 1
                self._post(
                    donor_rt.node, recovered, StoreMsg("ins", tup, [], None),
                    repair=True,
                )

    def refresh_soft_state(self) -> None:
        """Soft-state refresh (after a partition heals): every live
        node re-advertises its *own-originated* live tuples along their
        storage paths, repairing region replicas that the partition cut
        off.  Idempotent — windows dedup replicas on tuple id — and
        message-costed (category 'repair')."""
        if not self.fault_tolerant:
            return
        radio = self.network.radio
        for runtime in self.runtimes.values():
            origin = runtime.node.id
            if not radio.is_alive(origin):
                continue
            now = runtime.node.clock.now()
            for window in runtime.windows.values():
                for tup in window.live_at(now):
                    if tup.tuple_id.source == origin:  # else a replica
                        self._replicate(runtime.node, "ins", tup, None, repair=True)

    def _publish_derived(self, node: Node, pred: str, args: ArgsTuple, fact: DerivedFact, op: str) -> None:
        """A derived tuple becomes a generation/deletion of the derived
        stream at its hash node (Section III-B)."""
        tup = StreamTuple(pred, args, fact.tuple_id)
        if not self.plan.consumed(pred):
            return  # a pure output predicate: no further phases needed
        del_ts = node.clock.now() if op == "del" else None
        self._start_phases(node.id, tup, op=op, del_ts=del_ts)

    # -- result gathering (in-network, message-costed) ----------------------------

    def gather(self, pred: str, sink: int) -> Set[tuple]:
        """Ship every visible derived fact of ``pred`` to ``sink``.

        This is how a base station actually consumes a query's result
        table: the facts live at their hash nodes, and each home node
        routes its facts to the sink (paying messages).  Returns the
        rows received at the sink after the network drains.
        """
        self._require_installed()
        request_id = next(self._gather_counter)
        self._gather_requests[request_id] = set()
        with _span("gpa.gather_all", sim=self.network.sim, pred=pred,
                   sink=sink):
            for home, _pred, args, _fact in self._visible(pred):
                self._post(home, sink, GatherMsg(pred, args, request_id))
            self.network.run_all()
        return self._gather_requests.pop(request_id)

    def _on_gather(self, node: Node, msg: GatherMsg) -> None:
        if _obs.enabled:
            self._observe_phase("gather", msg)
        rows = self._gather_requests.get(msg.request_id)
        if rows is None:
            return  # stale report from an earlier request
        rows.add(self._row(msg.args))

    # -- observer API (no message cost: test/bench instrumentation) ---------------

    def _row(self, args: ArgsTuple) -> tuple:
        return tuple(_freeze_value(eval_term(a, self.registry)) for a in args)

    def _visible(self, pred: Optional[str] = None, live_only: bool = False):
        """``(home node, pred, args, fact)`` of every visible derived
        fact — of one predicate, at live nodes only, on request."""
        radio = self.network.radio
        for runtime in self.runtimes.values():
            if live_only and not radio.is_alive(runtime.node.id):
                continue
            for p, args, fact in runtime.derived.visible(pred):
                yield runtime.node, p, args, fact

    def rows(self, pred: str, live_only: bool = False) -> Set[tuple]:
        """All visible derived facts for ``pred`` as Python value
        tuples.  ``live_only=True`` counts only facts resident at
        currently-live nodes — the churn experiments' completeness
        measure (a fact stored solely at dead nodes is not retrievable,
        which is exactly what replication is supposed to prevent)."""
        return {
            self._row(args)
            for _home, _pred, args, _fact in self._visible(pred, live_only)
        }

    def derived_count(self, pred: str) -> int:
        return len(self.rows(pred))

    def derivation_store(self) -> Dict[Tuple[str, ArgsTuple], Set[WireDerivation]]:
        """The final derivation store in a mode-independent normal form,
        for differential (barrier vs. pipelined) comparison.

        Every visible derived fact ``(pred, args)`` maps to its set of
        derivations.  References to *base* facts keep their full tuple
        id; references to *derived* facts read ``"derived"`` instead —
        a derived tuple's id is a fresh stamp minted at its first
        derivation, whose wall-clock necessarily differs between
        evaluation modes while the logical tuple is the same.
        """
        idb = self.plan.idb

        def normal(f: FactRef) -> FactRef:
            return FactRef(f.pred, f.args, "derived") if f.pred in idb else f

        out: Dict[Tuple[str, ArgsTuple], Set[WireDerivation]] = {}
        for _home, pred, args, fact in self._visible():
            out.setdefault((pred, args), set()).update(
                WireDerivation(d.rule_id, tuple(map(normal, d.facts)))
                for d in fact.derivations
            )
        return out

    def latency_report(self, pred: Optional[str] = None) -> Dict[str, float]:
        """Mean / max result latency (update timestamp → first
        derivation at the hash node), optionally for one predicate."""
        samples = [
            lat for p, lat in self.latency_samples
            if pred is None or p == pred
        ]
        if not samples:
            return {"count": 0, "mean": 0.0, "max": 0.0}
        return {
            "count": len(samples),
            "mean": sum(samples) / len(samples),
            "max": max(samples),
        }

    def memory_report(self, include_derived: bool = True) -> Dict[int, int]:
        """Per-node resident tuples (window replicas and, in pipelined
        mode, parked partials, plus the derived result tables unless
        ``include_derived`` is False)."""
        return {
            nid: rt.memory_tuples(include_derived)
            for nid, rt in self.runtimes.items()
        }

    def expire_all(self) -> int:
        """Force an expiry sweep on every node's windows, parked
        partials and derived table (normally expiry is piggybacked on
        stores); returns tuples, partials, tombstones and emptied facts
        reclaimed."""
        reclaimed = 0
        for rt in self.runtimes.values():
            now = rt.node.clock.now()
            horizon = self._horizon(now)
            for window in rt.windows.values():
                reclaimed += len(window.expire(now))
            for entries in rt.parked.values():
                reclaimed += self._reclaim_parked(rt, entries, horizon)
            reclaimed += rt.derived.expire(horizon)
        return reclaimed
