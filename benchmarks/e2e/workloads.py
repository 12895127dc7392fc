"""Workload generators and independent oracles for the end-to-end benchmark.

Every workload is a closed batch: ``setup()`` builds a fresh network and
engine (timed as ``setup_s``), ``run(state)`` publishes the inputs, runs
the simulation to quiescence and collects the answer (timed as
``wall_s``).  The inputs are generated once per process from ``--seed``;
the oracle runs once, outside every timed region, and never uses the
code path being measured: central ``evaluate()`` for the distributed
joins, a plain Python loop for the negation query, networkx for the
shortest-path and closure workloads, a single-process run for the
sharded one.

Generators are written so that the *amount* of work barely depends on
the seed (balanced join keys, a fixed number of detections, a fixed
result count where possible): the seed moves tuples between nodes and
reorders them, so a regression shows as a shift of every seed's timing
rather than drowning in seed-to-seed variation.

The generators are self-contained copies of the ones in
``benchmarks/harness.py`` / ``bench_e*.py`` so that those files can keep
changing without moving this benchmark.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import heapq
import math
import random
import statistics
import time
from types import SimpleNamespace
from typing import Dict, List, Set, Tuple

import networkx as nx

from repro import obs
from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program
from repro.core.plan import GLOBAL_PLAN_CACHE
from repro.dist import build_sptree
from repro.dist.gpa import GPAEngine
from repro.dist.localized import visible_rows
from repro.net import shard
from repro.net.network import GridNetwork, SensorNetwork
from repro.net.topology import RandomGeometricTopology
from repro.net.transport import TransportConfig


def row_errors(got: Set[tuple], expected: Set[tuple]) -> Tuple[int, int]:
    """(missing + extra rows, expected rows)."""
    return len(got ^ expected), len(expected)


class Workload:
    """One named workload at one size, with inputs drawn from ``seed``."""

    name = ""
    why = ""
    #: Per-scale generator parameters, ``{"full": {...}, "smoke": {...}}``.
    sizes: Dict[str, dict] = {}

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.size = self.sizes[scale]
        self.generate(random.Random(seed))

    def generate(self, rng: random.Random) -> None:
        """Draw the inputs."""

    def setup(self, traced: bool = False) -> SimpleNamespace:
        """Build the system under test; ``traced`` lets a workload pick
        the variant whose code a profile hook can see."""
        raise NotImplementedError

    def run(self, state: SimpleNamespace):
        """Publish → quiescence → answer."""
        raise NotImplementedError

    def oracle(self):
        raise NotImplementedError

    def errors(self, answer, expected) -> Tuple[int, int]:
        return row_errors(answer, expected)

    def counts(self, state: SimpleNamespace) -> Dict[str, float]:
        """Exact counts read from public attributes after ``run``."""
        return {}

    def inputs(self):
        """Everything ``generate`` drew, in a form with a stable repr."""
        raise NotImplementedError

    def input_digest(self) -> str:
        """A short fingerprint of the generated inputs."""
        return hashlib.sha1(repr(self.inputs()).encode()).hexdigest()[:10]

    def diagnostics(self, reference: "Reps") -> Dict[str, float]:
        """Extra per-layer measurements of the traced run that need runs
        of their own; ``reference`` is the untraced repetitions."""
        return {}


#: What :func:`host_kernel` takes on the reference host: the median of
#: this repository's 2-core build box over 140 runs (it ranged 0.027 s to
#: 0.11 s within 35 minutes).
REFERENCE_KERNEL_S = 0.04


def host_kernel() -> float:
    """Seconds this host needs right now for a fixed piece of interpreter
    work: heap, dict, tuple and str churn, what a simulated round is made
    of.  See ``Reps`` for why the benchmark measures it."""
    start = time.perf_counter()
    heap: list = []
    tally: Dict[int, int] = {}
    for i in range(20000):
        heapq.heappush(heap, ((i * 7919) % 1009, i, (i, str(i))))
        tally[i % 257] = tally.get(i % 257, 0) + 1
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


class Reps:
    """Timed repetitions of one workload.

    The build box is a shared virtual machine whose effective CPU speed
    moves by 30% and more for seconds to minutes at a time (the same
    round reads 0.36 s and 0.60 s a minute apart, with no steal time
    showing), far beyond any bound a regression check could use.  So
    every repetition is bracketed by two :func:`host_kernel` timings and
    its times are scaled to the reference host speed:
    ``wall_s = raw seconds * REFERENCE_KERNEL_S / kernel seconds``.  The
    scaled times of one round agree within a few percent across those
    regimes; the raw ones are kept beside them.
    """

    def __init__(self) -> None:
        self.setup_raw_s: List[float] = []
        self.wall_raw_s: List[float] = []
        self.kernel_s: List[float] = []  # mean of the two bracketing timings
        self.answers: list = []
        self.state = None  # of the last repetition

    def _scaled(self, raw: List[float]) -> List[float]:
        return [t * REFERENCE_KERNEL_S / k for t, k in zip(raw, self.kernel_s)]

    @property
    def setup_s(self) -> List[float]:
        return self._scaled(self.setup_raw_s)

    @property
    def wall_s(self) -> List[float]:
        return self._scaled(self.wall_raw_s)

    @property
    def host_speed(self) -> float:
        """Median host speed during the repetitions, 1.0 = reference."""
        return REFERENCE_KERNEL_S / statistics.median(self.kernel_s)


def time_reps(workload: Workload, min_reps: int, seconds: float = 0.0) -> Reps:
    """The closed loop: fresh set-up, one round, repeat — at least
    ``min_reps`` times and until ``seconds`` have passed.  Garbage of the
    previous repetition is collected outside the timed regions."""
    reps = Reps()
    deadline = time.perf_counter() + seconds
    kernel_before = host_kernel()
    while len(reps.answers) < min_reps or time.perf_counter() < deadline:
        reps.state = None
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup()
        t1 = time.perf_counter()
        answer = workload.run(state)
        t2 = time.perf_counter()
        kernel_after = host_kernel()
        reps.setup_raw_s.append(t1 - t0)
        reps.wall_raw_s.append(t2 - t1)
        reps.kernel_s.append((kernel_before + kernel_after) / 2)
        reps.answers.append(answer)
        reps.state = state
        kernel_before = kernel_after
    return reps


# -- shared count readers ------------------------------------------------------


def network_counts(metrics, events: int, queue_hwm: int, gave_up: int,
                   expected_rows: int) -> Dict[str, float]:
    category = metrics.category_tx
    rows = max(1, expected_rows)
    return {
        "sim_frames_per_result": metrics.total_messages / rows,
        "sim_bytes_per_result": metrics.total_bytes / rows,
        "sim_max_node_load": metrics.max_node_load,
        "net.sim.events": events,
        "net.sim.queue_hwm": queue_hwm,
        "net.radio.frames": metrics.total_messages,
        "net.radio.bytes": metrics.total_bytes,
        "net.radio.dropped": metrics.dropped,
        "net.transport.acks": metrics.acks,
        "net.transport.retries": metrics.retries,
        "net.transport.dup_suppressed": metrics.dup_suppressed,
        "net.transport.retry_exhausted": metrics.retry_exhausted,
        "dist.gpa.msgs_storage": category.get("storage", 0),
        "dist.gpa.msgs_join": category.get("join", 0),
        "dist.gpa.msgs_result": category.get("result", 0),
        "dist.gpa.gave_up": gave_up,
    }


def engine_counts(net, engine, expected_rows: int) -> Dict[str, float]:
    out = network_counts(
        net.metrics, net.sim.events_processed, net.sim.queue_hwm,
        engine.delivery_report().get("gave_up", 0), expected_rows,
    )
    latency = engine.latency_report()
    out["sim_latency_mean_s"] = latency["mean"]
    out["sim_latency_max_s"] = latency["max"]
    return out


# -- 1/2: two-stream join on a grid ---------------------------------------------


JOIN_PROGRAM = "j(K, A, B) :- r(K, A), s(K, B)."


def central_rows(program: str, facts, pred: str) -> Set[tuple]:
    """The oracle for the distributed joins: one central fixpoint."""
    db = Database()
    for fact_pred, args in facts:
        db.assert_fact(fact_pred, args)
    evaluate(parse_program(program), db)
    return db.rows(pred)


class JoinRound(Workload):
    """``j(K,A,B) :- r(K,A), s(K,B).`` over an m x m grid, PA regions.

    Keys are balanced — every key occurs ``tuples / keys`` times in each
    stream — so the result has exactly ``tuples**2 / keys`` rows for any
    seed; the seed picks each tuple's source node and the publish order.
    """

    mode = "barrier"
    net_kwargs: dict = {}

    def generate(self, rng):
        m, tuples, keys = self.size["m"], self.size["tuples"], self.size["keys"]
        self.publishes: List[Tuple[int, str, tuple]] = []
        for stream in ("r", "s"):
            stream_keys = [i % keys for i in range(tuples)]
            rng.shuffle(stream_keys)
            for i, key in enumerate(stream_keys):
                self.publishes.append(
                    (rng.randrange(m * m), stream, (key, f"{stream}{i}"))
                )
        rng.shuffle(self.publishes)
        self.expected_rows = tuples * tuples // keys

    def setup(self, traced=False):
        net = GridNetwork(self.size["m"], seed=self.seed, **self.net_kwargs)
        engine = GPAEngine(
            parse_program(JOIN_PROGRAM), net, strategy="pa", mode=self.mode
        ).install()
        return SimpleNamespace(net=net, engine=engine)

    def run(self, state):
        for node, pred, args in self.publishes:
            state.engine.publish(node, pred, args)
        state.net.run_all()
        return state.engine.rows("j")

    def oracle(self):
        return central_rows(
            JOIN_PROGRAM, [(p, a) for _n, p, a in self.publishes], "j"
        )

    def counts(self, state):
        return engine_counts(state.net, state.engine, self.expected_rows)

    def inputs(self):
        return self.publishes


class JoinDense(JoinRound):
    name = "join_dense"
    why = ("many frames per routing table: dist.gpa handlers, net.radio, "
           "net.node and net.sim per-event overhead do the work, "
           "net.routing is amortised")
    sizes = {
        "full": {"m": 16, "tuples": 120, "keys": 60},
        "smoke": {"m": 6, "tuples": 12, "keys": 6},
    }

    def diagnostics(self, reference):
        """What switching ``repro.obs`` telemetry on costs this round."""
        obs.enable()
        try:
            with_obs = time_reps(self, min_reps=3)
        finally:
            obs.disable()
            obs.reset()
        return {"obs.on_wall_ratio": statistics.median(with_obs.wall_s)
                / statistics.median(reference.wall_s)}


class JoinStreamLossy(JoinRound):
    name = "join_stream_lossy"
    why = ("same join through the other mechanisms: pipelined parked "
           "partials instead of barriers, and acks, timeouts and dedup in "
           "net.transport on 10% frame loss")
    sizes = {
        "full": {"m": 16, "tuples": 60, "keys": 30},
        "smoke": {"m": 6, "tuples": 8, "keys": 4},
    }
    mode = "pipelined"

    @property
    def net_kwargs(self):
        # Nine attempts per hop: at 10% loss a hop fails for good once in
        # 1e9 frames, so no seed loses a row to an exhausted retry budget
        # (the default six attempts lose one frame in 1e6).
        return {"loss_rate": 0.1, "reliable": True,
                "transport": TransportConfig(max_retries=8)}


# -- 3: negation under inserts and deletes ---------------------------------------


COVER = 3.0
NEGATION_PROGRAM = f"""
    cov(L1, T)  :- veh("enemy", L1, T), veh("friendly", L2, T),
                   dist(L1, L2) <= {COVER}.
    uncov(L, T) :- veh("enemy", L, T), not cov(L, T).
"""


class MaintNegation(Workload):
    """Example 1's uncovered-enemy query with retractions.

    Each epoch the enemies are detected first and the friendlies half an
    epoch later, so an alert is raised and then cleared; at the end every
    second friendly detection is retracted and the alerts it suppressed
    come back.  Every epoch draws fresh uniform positions, so every epoch
    has the same number of detections and the share of covered enemies
    averages out over the epochs.  (Publishing both kinds at the same
    instant, as ``bench_e6`` does, hits an add/sub ordering race on the
    seed commit: see README, Findings.)
    """

    name = "maint_negation"
    why = ("deletes beside inserts: deletion timestamps, derivation-set "
           "subtraction, tau_s/tau_c/tau_j waits and streams.windows; the "
           "only workload on GPAEngine.retract")
    sizes = {
        "full": {"m": 10, "enemy": 16, "friendly": 10, "epochs": 6},
        "smoke": {"m": 6, "enemy": 3, "friendly": 2, "epochs": 3},
    }
    EPOCH_S = 8.0  # simulated seconds; far above tau_s + tau_c + tau_j

    def generate(self, rng):
        hi = self.size["m"] - 1.0
        kinds = (["enemy"] * self.size["enemy"]
                 + ["friendly"] * self.size["friendly"])
        #: (sim time, kind, location, epoch), in publish order.
        self.detections: List[Tuple[float, str, tuple, int]] = []
        for epoch in range(self.size["epochs"]):
            spots = [
                (round(rng.uniform(0, hi), 2), round(rng.uniform(0, hi), 2))
                for _ in kinds
            ]
            for lag, wanted in ((0.0, "enemy"), (self.EPOCH_S / 2, "friendly")):
                self.detections += [
                    (epoch * self.EPOCH_S + lag, kind, spot, epoch)
                    for kind, spot in zip(kinds, spots) if kind == wanted
                ]
        friendly = [d for d in self.detections if d[1] == "friendly"]
        self.retracted = set(friendly[::2])
        self.expected_rows = len(self.oracle())

    def setup(self, traced=False):
        net = GridNetwork(self.size["m"], seed=self.seed)
        engine = GPAEngine(
            parse_program(NEGATION_PROGRAM), net, strategy="pa"
        ).install()
        return SimpleNamespace(net=net, engine=engine)

    def run(self, state):
        net, engine = state.net, state.engine
        published = []
        for detection in self.detections:
            when, kind, loc, epoch = detection
            net.run_until(when)
            node = net.nearest_node(loc)
            tuple_id = engine.publish(node, "veh", (kind, loc, epoch))
            if detection in self.retracted:
                published.append((node, (kind, loc, epoch), tuple_id))
        net.run_all()
        for node, args, tuple_id in published:
            engine.retract(node, "veh", args, tuple_id)
        net.run_all()
        return engine.rows("uncov")

    def oracle(self):
        """Enemy detections with no surviving friendly detection of the
        same epoch within COVER — straight from the definition."""
        live = [d for d in self.detections if d not in self.retracted]
        out = set()
        for _t, kind, loc, epoch in live:
            if kind != "enemy":
                continue
            covered = any(
                k == "friendly" and e == epoch
                and math.hypot(loc[0] - f[0], loc[1] - f[1]) <= COVER
                for _t2, k, f, e in live
            )
            if not covered:
                out.add((loc, epoch))
        return out

    def counts(self, state):
        return engine_counts(state.net, state.engine, self.expected_rows)

    def inputs(self):
        return self.detections


# -- 4: localized shortest-path tree ----------------------------------------------


class SptreeGrid(Workload):
    """logicJ shortest-path tree on an m x m grid, rooted at a corner.

    The seed picks the corner and the radio's delay jitter (the order in
    which better distances arrive); the four corners are symmetric, so
    the work is the same.  On random-geometric deployments logicJ does
    not terminate in minutes at some sizes (README, Findings).
    """

    name = "sptree_grid"
    why = ("XY-stratified recursion through dist.localized with "
           "core.unify/core.builtins per event (several times the per-event "
           "cost of a join round); no GPAEngine, no regions")
    sizes = {"full": {"m": 14}, "smoke": {"m": 5}}

    def generate(self, rng):
        m = self.size["m"]
        self.root = rng.choice([0, m - 1, m * (m - 1), m * m - 1])
        self.expected_rows = m * m

    def setup(self, traced=False):
        return SimpleNamespace(net=GridNetwork(self.size["m"], seed=self.seed))

    def run(self, state):
        engine, pred = build_sptree(state.net, root=self.root, variant="j")
        state.net.run_all()
        return visible_rows(engine, pred)

    def oracle(self):
        m = self.size["m"]
        graph = nx.grid_2d_graph(m, m)
        # GridTopology numbers node (x, y) as y * m + x.
        root = (self.root % m, self.root // m)
        depths = nx.single_source_shortest_path_length(graph, root)
        return {(y * m + x, depth) for (x, y), depth in depths.items()}

    def counts(self, state):
        net = state.net
        return network_counts(
            net.metrics, net.sim.events_processed, net.sim.queue_hwm, 0,
            self.expected_rows,
        )

    def inputs(self):
        return self.root, self.seed  # the seed is the radio's jitter


# -- 5/6: sparse rounds on large random deployments ---------------------------------


RADIUS = 1.8  # with side = sqrt(n): about ten neighbours per node
#: The random deployments are fixed, like the grids: half of all seeds
#: give a disconnected first draw at this radius and the topology
#: constructor then redraws, which would make set-up time a coin toss.
#: Seed 7 connects on its first draw at every size used here.
#: ``--seed`` moves the tuples and the radio's jitter.
DEPLOYMENT_SEED = 7


def deployment(n: int) -> RandomGeometricTopology:
    return RandomGeometricTopology(n, RADIUS, n ** 0.5, DEPLOYMENT_SEED)


def sparse_publishes(rng, topology, tuples: int, keys: int):
    """``tuples`` per stream, balanced over ``keys``, one tuple in every
    column strip and every row strip of the arena (a random permutation
    matrix, jittered): how many region rows and columns a round touches,
    and so how many routing tables it builds, is then the same for every
    seed, where uniform draws collide or not by luck."""
    tagged = [(stream, (i % keys, f"{stream}{i}"))
              for stream in ("r", "s") for i in range(tuples)]
    rng.shuffle(tagged)
    strip = topology.side / len(tagged)
    rows = list(range(len(tagged)))
    rng.shuffle(rows)
    out = []
    for column, (row, (stream, args)) in enumerate(zip(rows, tagged)):
        spot = ((column + rng.random()) * strip, (row + rng.random()) * strip)
        out.append((topology.nearest_node(spot), stream, args))
    return out


class RoundSparse(Workload):
    """A handful of tuples joined across a large random deployment with
    BFS routing (the E19 round)."""

    name = "round_sparse"
    why = ("few frames on a big deployment: nearly all time is net.routing "
           "building one BFS next-hop table per destination; event-path "
           "work must show no change here")
    sizes = {
        "full": {"n": 1200, "tuples": 3, "keys": 3},
        "smoke": {"n": 150, "tuples": 2, "keys": 2},
    }

    def generate(self, rng):
        self.publishes = sparse_publishes(
            rng, deployment(self.size["n"]), self.size["tuples"],
            self.size["keys"],
        )
        self.expected_rows = self.size["tuples"] ** 2 // self.size["keys"]

    def setup(self, traced=False):
        net = SensorNetwork(deployment(self.size["n"]), seed=self.seed)
        engine = GPAEngine(
            parse_program(JOIN_PROGRAM), net, strategy="virtual-grid"
        ).install()
        return SimpleNamespace(net=net, engine=engine)

    def run(self, state):
        for node, pred, args in self.publishes:
            state.engine.publish(node, pred, args)
        state.net.run_all()
        return state.engine.rows("j")

    def oracle(self):
        return central_rows(
            JOIN_PROGRAM, [(p, a) for _n, p, a in self.publishes], "j"
        )

    def counts(self, state):
        return engine_counts(state.net, state.engine, self.expected_rows)

    def inputs(self):
        return self.publishes


class Shard2Round(Workload):
    """The E19b spec on two shard worker processes."""

    name = "shard2_round"
    why = ("the only workload through net.shard: conservative windows, "
           "border-record pickling and fork; geographic routing with BFS "
           "fallback tables rebuilt in every worker")
    sizes = {
        "full": {"n": 2000, "tuples": 8, "keys": 4},
        "smoke": {"n": 200, "tuples": 2, "keys": 2},
    }
    shards = 2

    def generate(self, rng):
        n = self.size["n"]
        side = n ** 0.5
        publishes = [
            (0.0, node, pred, args)
            for node, pred, args in sparse_publishes(
                rng, deployment(n), self.size["tuples"], self.size["keys"]
            )
        ]
        self.spec = shard.WorkloadSpec(
            topology={"kind": "random", "n": n, "radius": RADIUS,
                      "side": side, "seed": DEPLOYMENT_SEED},
            program=JOIN_PROGRAM,
            publishes=publishes,
            outputs=("j",),
            seed=self.seed,
            strategy="virtual-grid",
            strategy_kwargs={"leg_bound": max(1, int(2 * side / RADIUS))},
            routing="geo",
        )
        self.expected_rows = self.size["tuples"] ** 2 // self.size["keys"]

    def setup(self, traced=False):
        # Workers build their own networks inside run(); what the caller
        # sets up is the shared topology.
        return SimpleNamespace(
            topology=shard.build_topology(self.spec), inline=traced,
        )

    def run(self, state):
        state.report = shard.run(
            self.spec, shards=self.shards, inline=state.inline,
            topology=state.topology,
        )
        return state.report.fingerprint()

    def oracle(self):
        """The same spec on the single-process simulator."""
        return shard.run(self.spec, shards=None).fingerprint()

    def diagnostics(self, reference):
        """Single-process time for the same round (the base of
        ``net.shard.speedup``) and the cost of one worker checkpoint,
        from an inline run that checkpoints at every quarter."""
        single_process = copy.copy(self)
        single_process.shards = None
        single = statistics.median(time_reps(single_process, min_reps=3).wall_s)
        state = reference.state
        supervision = shard.run(
            self.spec, shards=self.shards, inline=True, topology=state.topology,
            checkpoint_every=max(1, state.report.windows // 4),
        ).supervision
        taken = max(1, supervision["checkpoints"])
        return {
            "net.shard.single_process_s": single,
            "net.shard.speedup": single / statistics.median(reference.wall_s),
            "net.checkpoint.capture_s_per_ckpt":
                supervision["checkpoint_seconds"] / taken,
            "net.checkpoint.bytes_per_ckpt":
                supervision["checkpoint_bytes"] / taken,
        }

    def errors(self, answer, expected):
        got = set(answer["rows"]["j"])
        want = set(expected["rows"]["j"])
        if answer != expected and got == want:
            return len(want), len(want)  # right rows, different run
        return row_errors(got, want)

    def counts(self, state):
        report = state.report
        out = network_counts(
            report.metrics, report.events_processed, report.queue_hwm,
            report.delivery.get("gave_up", 0), self.expected_rows,
        )
        out["net.shard.windows"] = report.windows
        out["net.shard.border_records"] = report.border_records
        return out

    def inputs(self):
        return self.spec


# -- 7: central evaluation, no network ------------------------------------------------


TC_PROGRAM = """
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- e(X, Y), tc(Y, Z).
"""

#: The logicH shortest-path-tree program (Example 3 / Section IV-C).
SPTREE_PROGRAM = """
    h(a, a, 0).
    h(a, X, 1) :- g(a, X).
    hp(Y, D + 1) :- h(_, Y, Dp), D + 1 > Dp, h(_, X, D), g(X, Y).
    h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
"""


def _grid_name(x: int, y: int) -> str:
    return "a" if (x, y) == (0, 0) else f"n{x}_{y}"


class CentralEval(Workload):
    """``evaluate()`` on transitive closure of a random digraph, then on
    logicH over a grid graph; the answer is ``tc`` plus each node's tree
    depth."""

    name = "central_eval"
    why = ("no network: core.eval/core.vector/core.columnar/core.plan do "
           "all the work, once in a few large vectorised batches (tc) and "
           "once in many small XY-stage batches (sptree)")
    sizes = {
        "full": {"nodes": 90, "out_degree": 4, "grid": 8},
        "smoke": {"nodes": 20, "out_degree": 3, "grid": 4},
    }

    def generate(self, rng):
        n, out_degree = self.size["nodes"], self.size["out_degree"]
        self.edges = sorted(
            (u, v) for u in range(n)
            for v in rng.sample(range(n), out_degree)
        )
        g = self.size["grid"]
        self.grid_edges = []
        for (x0, y0), (x1, y1) in nx.grid_2d_graph(g, g).edges():
            a, b = _grid_name(x0, y0), _grid_name(x1, y1)
            self.grid_edges += [(a, b), (b, a)]

    def setup(self, traced=False):
        GLOBAL_PLAN_CACHE.clear()  # plan compilation is paid inside wall_s
        tc_db, tree_db = Database(), Database()
        for edge in self.edges:
            tc_db.assert_fact("e", edge)
        for edge in self.grid_edges:
            tree_db.assert_fact("g", edge)
        return SimpleNamespace(
            tc_program=parse_program(TC_PROGRAM), tc_db=tc_db,
            tree_program=parse_program(SPTREE_PROGRAM), tree_db=tree_db,
        )

    def run(self, state):
        evaluate(state.tc_program, state.tc_db)
        evaluate(state.tree_program, state.tree_db)
        depths = {(node, depth) for _parent, node, depth in state.tree_db.rows("h")}
        return {("tc",) + row for row in state.tc_db.rows("tc")} | {
            ("depth",) + row for row in depths
        }

    def oracle(self):
        digraph = nx.DiGraph(self.edges)
        closure = {
            ("tc", u, v) for u in digraph for v in nx.descendants(digraph, u)
        }
        # u reaches itself exactly when it lies on a cycle.
        closure |= {
            ("tc", u, u) for u in digraph
            if any(u in nx.descendants(digraph, v) or v == u
                   for v in digraph.successors(u))
        }
        g = self.size["grid"]
        depths = nx.single_source_shortest_path_length(
            nx.grid_2d_graph(g, g), (0, 0)
        )
        return closure | {
            ("depth", _grid_name(x, y), d) for (x, y), d in depths.items()
        }

    def counts(self, state):
        dbs = (state.tc_db, state.tree_db)
        # getattr: ROADMAP plans to fold these counters into repro.obs;
        # the benchmark must keep running (reporting 0) when they move.
        relations = [db.relation(p) for db in dbs for p in db.predicates()]
        return {
            "core.eval.probes": sum(getattr(r, "probes", 0) for r in relations),
            "core.eval.scans": sum(getattr(r, "scans", 0) for r in relations),
            "core.eval.derived_facts": sum(
                db.count(p) for db, preds in zip(dbs, (("tc",), ("h", "hp")))
                for p in preds
            ),
        }

    def inputs(self):
        return self.edges


WORKLOADS = {
    cls.name: cls for cls in (
        JoinDense, JoinStreamLossy, MaintNegation, SptreeGrid, RoundSparse,
        Shard2Round, CentralEval,
    )
}
