"""Shared benchmark harness.

Each ``bench_eN_*.py`` regenerates one table/figure of the evaluation:
run standalone (``python benchmarks/bench_e1_join_cost.py``) for the
full table, or under ``pytest benchmarks/ --benchmark-only`` for a
timed smoke-scale run plus shape assertions.
"""

from __future__ import annotations

import copy
import json
import multiprocessing
import multiprocessing.util
import os
import random
import sys
import traceback
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

import repro
from repro import obs
from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program
from repro.dist.gpa import GPAEngine
from repro.net.faults import FaultInjector, FaultSchedule
from repro.net.network import GridNetwork

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Render an aligned ASCII table (the bench output format)."""
    rows = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print(f"\n== {title} ==")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def report(name: str, title: str, headers: Sequence[str],
           rows: Iterable[Sequence]) -> str:
    """Print a bench table *and* persist it (plus telemetry artifacts
    when enabled) under ``benchmarks/results/<name>.json`` — the one
    call every bench's ``run()`` funnels its table through."""
    rows = [list(r) for r in rows]
    print_table(title, headers, rows)
    return record_results(name, headers, rows)


def record_results(name: str, headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Persist a bench table as JSON under ``benchmarks/results/`` so
    EXPERIMENTS.md numbers are reproducible artifacts.  Returns the
    written path.  When telemetry is enabled, the run's trace/metrics/
    manifest artifacts land next to the results JSON (see
    :func:`telemetry_report`)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    payload = {
        "experiment": name,
        "headers": list(headers),
        "rows": [list(r) for r in rows],
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, default=repr)
    telemetry_report(name)
    return path


def check_exact_table(name: str, table: Dict[str, Any]) -> None:
    """Compare a ``--smoke`` table, cell by cell and for equality, with
    the ``"smoke"`` table committed in ``benchmarks/BENCH_<name>.json``;
    exit non-zero when a cell differs or exists on one side only.  The
    counts are simulated — deterministic per seed — so a frame, a byte
    or a row that moved is a change of behaviour, not noise."""
    baseline_file = f"BENCH_{name}.json"
    with open(os.path.join(os.path.dirname(RESULTS_DIR), baseline_file)) as f:
        baseline = json.load(f)["smoke"]
    failed = set(baseline) ^ set(table)
    for key in sorted(failed):
        print(f"[{name}] {key}: in only one of the run and {baseline_file} FAIL")
    for key, want in baseline.items():
        got = table.get(key)
        if got is not None and got != want:
            print(f"[{name}] {key}: {got} (committed {want}) FAIL")
            failed.add(key)
    if failed:
        sys.exit(1)
    print(f"[{name}] {len(baseline)} cells identical to {baseline_file} OK")


def telemetry_report(name: str, **manifest_extra) -> Optional[Dict[str, str]]:
    """Dump the telemetry collected so far for one bench run.

    Writes ``<name>.trace.jsonl`` (spans + events),
    ``<name>.metrics.prom`` (Prometheus-style registry snapshot) and
    ``<name>.manifest.json`` (interpreter/git/seed envelope) next to the
    bench's results JSON.  A no-op returning None when telemetry is off,
    so every bench can call it unconditionally."""
    if not obs.enabled():
        return None
    paths = obs.write_run_artifacts(
        RESULTS_DIR, name, manifest_extra=manifest_extra
    )
    print(f"[telemetry] trace={paths['trace']} metrics={paths['metrics']} "
          f"manifest={paths['manifest']}")
    return paths


def run_trials(
    fn: Callable[..., Any],
    trials: Sequence[Dict],
    parallel: Optional[int] = None,
    telemetry_name: Optional[str] = None,
) -> List[Any]:
    """Run ``fn(**trial)`` for each trial dict, in trial order.

    The one trial-running entry point:

    * ``parallel=None`` runs serially, in order, in this process;
    * ``parallel=k`` fans the trials out over ``k`` worker processes
      (``k <= 1`` or a single trial falls back to serial).  Results
      come back in trial order, so a parallel run is row-for-row
      identical to a serial one as long as ``fn`` is deterministic in
      its arguments (every bench trial seeds its own RNGs, so this
      holds by construction).  ``fn`` must be picklable (module-level).
      A trial may itself run a sharded engine
      (:func:`repro.net.shard.run`): pool workers may fork.

    A trial that raises in a worker surfaces as :class:`TrialError` in
    the parent, carrying the failing trial's index, params (seed
    included), the shard id when the failure came out of a sharded
    engine worker, and the worker's traceback.  When telemetry is on
    and ``telemetry_name`` is given, each pool worker writes its own
    trace/metrics/manifest artifacts next to the results JSON at exit.
    """
    if parallel is None or parallel <= 1 or len(trials) <= 1:
        return [fn(**trial) for trial in trials]
    pool = _nestable_context().Pool(
        parallel, initializer=_worker_init, initargs=(telemetry_name,)
    )
    try:
        outcomes = pool.map(_run_trial, [(fn, dict(t)) for t in trials])
    finally:
        # close + join (not terminate) so worker atexit hooks run and
        # per-worker telemetry artifacts actually land on disk.
        pool.close()
        pool.join()
    results = []
    for index, (trial, outcome) in enumerate(zip(trials, outcomes)):
        if outcome[0] == "err":
            raise TrialError(index, trial, outcome[1], shard=outcome[2])
        results.append(outcome[1])
    return results


def _nestable_context():
    """The platform's default multiprocessing context, with pool
    workers made non-daemonic: a sharded trial (one calling
    :func:`repro.net.shard.run` with ``shards=k``) forks shard worker
    processes of its own, and daemonic processes may not have
    children.  ``Pool`` force-sets ``daemon = True`` on every worker
    before starting it, so the override must live in the Process
    class, not at the call site."""
    ctx = multiprocessing.get_context()

    class _PoolWorker(ctx.Process):
        @property
        def daemon(self):
            return False

        @daemon.setter
        def daemon(self, value):
            pass

    nestable = copy.copy(ctx)
    nestable.Process = _PoolWorker
    return nestable


def _dump_worker_telemetry(telemetry_name: str, pid: int) -> None:
    obs.write_run_artifacts(
        RESULTS_DIR, f"{telemetry_name}.w{pid}",
        manifest_extra={"worker_pid": pid},
    )


def _worker_init(telemetry_name: Optional[str]) -> None:
    """Pool initializer: arrange for each worker to dump its own
    telemetry artifacts (``<name>.w<pid>.{trace,metrics,manifest}``)
    when it exits, so parallel runs keep per-worker manifests instead
    of silently dropping telemetry on the floor.  Registered through
    ``multiprocessing.util.Finalize`` — pool workers leave via
    ``os._exit`` and never run plain ``atexit`` handlers.  A forked
    worker starts from an empty registry and trace: what the parent
    recorded before the fork is the parent's to report."""
    obs.reset()
    if telemetry_name and obs.enabled():
        multiprocessing.util.Finalize(
            None, _dump_worker_telemetry,
            args=(telemetry_name, os.getpid()), exitpriority=10,
        )


class TrialError(RuntimeError):
    """A parallel trial failed.

    Raised in the *parent* process with everything needed to reproduce
    the failure serially: the trial's position, its full parameter dict
    (including the seed, when the trial has one), the shard id when the
    failure came out of a sharded engine worker, and the worker's
    formatted traceback — instead of the bare, context-free pool
    traceback ``multiprocessing`` would otherwise surface.
    """

    def __init__(
        self,
        index: int,
        params: Dict,
        worker_traceback: str,
        shard: Optional[int] = None,
    ):
        self.index = index
        self.params = dict(params)
        self.worker_traceback = worker_traceback
        self.shard = shard
        seed = self.params.get("seed")
        seed_note = f" (seed={seed!r})" if seed is not None else ""
        shard_note = f" (in shard worker {shard})" if shard is not None else ""
        rerun = (
            "re-run serially with shards=None and params"
            if shard is not None
            else "re-run serially with params"
        )
        super().__init__(
            f"parallel trial {index}{seed_note} failed{shard_note}; "
            f"{rerun} {self.params!r}\n"
            f"--- worker traceback ---\n{worker_traceback.rstrip()}"
        )


def _run_trial(payload) -> Any:
    """Pool worker body: never lets an exception cross the pickle
    boundary raw — outcomes come back as ('ok', result) or
    ('err', traceback_text, shard_id_or_None) so the parent can attach
    the failing trial's params (and, for sharded-engine failures, the
    shard that blew up)."""
    fn, kwargs = payload
    try:
        return ("ok", fn(**kwargs))
    except Exception as exc:
        return ("err", traceback.format_exc(), getattr(exc, "shard", None))


def run_join_workload(
    m: int,
    strategy: str,
    tuples_per_stream: int = 12,
    streams: Sequence[str] = ("r", "s"),
    key_domain: int = 4,
    program: Optional[str] = None,
    seed: int = 0,
    loss_rate: float = 0.0,
    window: float = 1e9,
    reliable: bool = False,
    mode: str = "barrier",
    scheme: str = "one-pass",
    **net_kwargs,
):
    """Run a uniform multi-stream join on an m x m grid; returns
    (engine, network, expected_rows).  ``reliable=True`` turns on the
    per-hop ack/retransmit transport (E18); ``mode="pipelined"`` asks
    the engine for barrier-free streaming (E24); ``scheme="multi-pass"``
    joins one stream per traversal of the join region (E4); extra
    keyword arguments go to the network constructor."""
    if program is None:
        head_vars = ", ".join(f"V{i}" for i in range(len(streams)))
        body = ", ".join(f"{s}(K, V{i})" for i, s in enumerate(streams))
        program = f"j(K, {head_vars}) :- {body}."
    net = GridNetwork(
        m, seed=seed, loss_rate=loss_rate, reliable=reliable, **net_kwargs
    )
    engine = GPAEngine(
        parse_program(program), net, strategy=strategy, window=window,
        mode=mode, scheme=scheme,
    ).install()
    rng = random.Random(seed + 1)
    facts = []
    for i in range(tuples_per_stream):
        for stream in streams:
            node = rng.randrange(m * m)
            args = (rng.randrange(key_domain), f"{stream}{i}")
            engine.publish(node, stream, args)
            facts.append((stream, args))
    net.run_all()
    db = Database()
    for pred, args in facts:
        db.assert_fact(pred, args)
    evaluate(parse_program(program), db)
    return engine, net, db.rows("j")


def run_churn_workload(
    m: int,
    strategy: str,
    tuples_per_stream: int = 10,
    streams: Sequence[str] = ("r", "s"),
    key_domain: int = 4,
    program: Optional[str] = None,
    seed: int = 0,
    churn_rate: float = 0.0,
    slots: int = 4,
    replicas: int = 3,
    epoch: float = 0.5,
    loss_rate: float = 0.0,
    reliable: bool = True,
    repair: bool = True,
    window: float = 1e9,
    **net_kwargs,
):
    """The E20 workload: a uniform multi-stream join on an m x m grid
    under seeded node churn.  Returns (engine, network, expected_rows,
    injector).

    Publishes are *staggered* across simulated time — batch ``i`` (one
    tuple per stream) fires at ``(i + 0.37) * epoch`` — while a
    :meth:`FaultSchedule.random_churn` schedule keeps ~``churn_rate``
    of the nodes down over the whole horizon, rotating membership every
    slot.  A publish whose origin is dead at publish time is skipped
    AND excluded from the oracle (a dead sensor senses nothing): both
    sides of the comparison are pure functions of the seed, because the
    schedule is built before the simulation and never touches the sim
    RNG.  ``replicas`` sets the GHT replica-set size; ``repair=True``
    arms routing self-repair and the engine's recovery hooks
    (anti-entropy on recover, soft-state refresh on heal).
    """
    if program is None:
        head_vars = ", ".join(f"V{i}" for i in range(len(streams)))
        body = ", ".join(f"{s}(K, V{i})" for i, s in enumerate(streams))
        program = f"j(K, {head_vars}) :- {body}."
    net = GridNetwork(
        m, seed=seed, loss_rate=loss_rate, reliable=reliable,
        ght_replicas=replicas, **net_kwargs
    )
    engine = GPAEngine(
        parse_program(program), net, strategy=strategy, window=window,
        fault_tolerant=True,
    ).install()
    # The churn horizon must cover the whole activity window, not just
    # the publish window: with the reliable transport on, join phases
    # launch a full (retry-horizon-widened) tau_s after their publish,
    # and result routing trails the joins — churn that ends with the
    # publishes would never overlap the phases it is supposed to shake.
    last_publish = (tuples_per_stream - 1 + 0.37) * epoch
    horizon = (last_publish + engine.window_params.join_delay) * 1.2
    schedule = FaultSchedule.random_churn(
        net.topology.node_ids, churn_rate, horizon, seed, slots=slots
    )
    injector = FaultInjector(net, schedule, repair=repair).arm()
    engine.attach_faults(injector)
    rng = random.Random(seed + 1)
    facts = []
    for i in range(tuples_per_stream):
        when = (i + 0.37) * epoch  # strictly inside a churn slot
        for stream in streams:
            node = rng.randrange(m * m)
            args = (rng.randrange(key_domain), f"{stream}{i}")
            if schedule.down_at(node, when):
                continue  # a dead sensor senses nothing
            net.sim.schedule_at(
                when,
                lambda n=node, s=stream, a=args: engine.publish(n, s, a),
            )
            facts.append((stream, args))
    net.run_all()
    db = Database()
    for pred, args in facts:
        db.assert_fact(pred, args)
    evaluate(parse_program(program), db)
    return engine, net, db.rows("j"), injector
