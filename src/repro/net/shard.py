"""Sharded simulation engine: spatial partitioning under conservative
time windows.

One event loop serializes every frame of a simulated network, which
caps whole-network experiments (E19) around 10k nodes.  This module
takes the simulator to 100k+ by partitioning the *arena* — not the
event queue — across worker processes:

* **Spatial partition.**  The shard key is the topology's uniform-grid
  spatial index: :meth:`GridIndex.cell_items` enumerates occupied
  cells in deterministic order, and contiguous runs of cells (balanced
  by node count) form shards.  Cell size is on the order of the radio
  range, so the overwhelming share of frames stays shard-internal and
  only border-crossing frames are exchanged.

* **Conservative windows (lookahead = ``delay_base``).**  Workers
  advance in lockstep epochs.  Each epoch the coordinator computes
  ``E`` — the minimum over every worker's earliest pending event and
  every undelivered border record's arrival — and lets all workers run
  the half-open window ``[now, E + L)`` where ``L`` is the minimum
  cross-border frame latency (``delay_base``).  Any frame sent inside
  the window departs at some event time ``s >= E``, so it arrives at
  ``s + delay >= E + L``: exchanging outboxes at the barrier can never
  deliver a frame late.  Idle gaps (e.g. the engine's tau_s + tau_c
  join delays) cost nothing — ``E`` jumps straight to the next event.

* **Border records.**  A frame whose destination lives in another
  shard runs its *sender half* (:meth:`Radio._frame_departure`: energy,
  loss, jitter, per-link FIFO) locally and ships
  ``(mode, arrival, src, dst, message)`` to the owner, which schedules
  the *receiver half* at the fixed arrival time.  Reliable transfers
  keep all retry state at the sender: data frames, acks, and
  retransmissions each cross as independent records, and the receiver
  side replays the transport's dedup/ack protocol byte-for-byte.

* **Determinism.**  Workers use :class:`~repro.net.radio.KeyedFrameRNG`
  (per-directed-link streams): the radio's loss and delay draws and the
  transport's timeout-jitter draw all come from
  ``KeyedFrameRNG.stream(src, dst)``, so every stochastic frame
  decision is independent of the global event interleaving.  Given (seed,
  shard_count) the run is deterministic; given nonzero delay jitter it
  is *differentially identical* — same result rows, same message /
  energy / transport counters — to the single-process simulator
  (``run(spec, shards=None)``), for any shard count.  (With zero
  jitter, simultaneous frame arrivals are ordered by a global sequence
  number no partitioned run can reproduce; the identity guarantee
  therefore assumes ``delay_jitter > 0``, the default.)

* **One worker path.**  Every run goes through :class:`ShardWorker`.
  The single-process run (``shards=None``) is one worker that owns every
  node on the plain :class:`Radio`, run to quiescence.  A sharded
  run's workers answer the coordinator's five commands (start, window,
  replay, checkpoint, finish) through one function, :func:`serve`,
  either in forked processes over a pipe or, with ``inline=True``, in
  this process over a connection that pickles every command and reply
  exactly as the pipe does.  The transport is the only difference.

* **Supervision and recovery.**  The coordinator doubles as a
  supervisor: with ``checkpoint_every=k`` every worker snapshots its
  replayable state (:mod:`repro.net.checkpoint`) at every k-th window
  barrier; with ``max_restarts>0`` the coordinator retains each window
  it posted since a shard's last checkpoint, detects a worker death
  (pipe EOF, or — with ``heartbeat_timeout`` — a missed-heartbeat
  hang, which is SIGKILLed and treated as a death), and restarts the
  lost shard from its checkpoint, replaying the retained windows
  deterministically.  Because checkpoints are taken at barriers and
  replay re-runs the identical keyed-RNG event sequence (reusing even
  the original msg ids), a recovered run's
  :meth:`ShardRunReport.fingerprint` equals a fault-free run's.  All
  supervision knobs default *off*, in which case the coordinator is
  byte-for-byte the unsupervised lockstep loop.  ``faults=`` accepts a
  :class:`~repro.net.faults.FaultSchedule` of ``worker_kill`` events —
  real process deaths injected mid-window for chaos testing (E25).

Not supported in v1 (rejected with :class:`ShardError`): the collision
/ contention model, finite batteries, routing self-repair and
simulated-fault injection (all couple shards through global radio
state; ``worker_kill`` process faults are the exception — they live
above the simulation), and custom deliver callables aimed at remote
nodes.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import multiprocessing
import os
import pickle
import signal
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..core.errors import NetworkError
from ..dist.gpa import GPAEngine
from ..obs import instrument as _inst
from ..obs import state as _obs
from . import checkpoint as _checkpoint
from . import messages
from .faults import FaultSchedule
from .messages import set_msg_id_base
from .metrics import MetricsCollector
from .network import SensorNetwork, _RemoteStub
from .radio import Radio
from .topology import GridTopology, RandomGeometricTopology, Topology
from .transport import AckMsg, TransportConfig

#: Border-record modes: a fire-and-forget frame, a reliable data frame
#: (the receiver must ack + dedup), and a link-layer ack riding back.
DATA = "data"
REL = "rel"
ACK = "ack"

#: Callback marker for the engine's delivery tracker — the one status
#: callback that may ride a routed envelope across a shard border.
#: Frozen to this string on the wire, rebound to the receiving worker's
#: engine on arrival.
TRACK_DELIVERY = "status:gpa-track-delivery"

#: msg-id range carved out per worker (:func:`serve` scopes the
#: process-global counter to the worker, so restarts can rewind one
#: shard's ids without touching its peers'): ids only need global
#: uniqueness (transport dedup keys on ``(sender, msg_id)``), never
#: density, so each worker counts from ``shard_id << 40``.
_MSG_ID_STRIDE = 1 << 40

#: Events a heartbeating worker runs between beats.  Small enough that
#: a live worker beats well inside any sane ``heartbeat_timeout``,
#: large enough that the per-chunk bookkeeping is invisible.
_BEAT_CHUNK = 2048

#: Events an injected worker_kill lets its window run before dying, so
#: the death lands mid-window (state half-advanced, then lost).
_KILL_SLICE = 32


class ShardError(NetworkError):
    """A sharded run cannot be configured or executed as requested."""


class ShardWorkerError(ShardError):
    """A shard worker failed.

    Carries the shard id and the worker's formatted traceback so the
    failure can be reproduced deterministically with a single-process
    rerun of the same spec (``run(spec, shards=None)``).
    """

    def __init__(self, shard: int, worker_traceback: str):
        self.shard = shard
        self.worker_traceback = worker_traceback
        super().__init__(
            f"shard worker {shard} failed; re-run the same spec with "
            f"shards=None to reproduce in one process\n"
            f"--- worker traceback ---\n{worker_traceback.rstrip()}"
        )


class _WorkerDeath(Exception):
    """Internal: a worker process/driver died (crash, injected kill,
    or heartbeat-timeout hang) without reporting a Python error.
    Candidate for supervised recovery; converted to
    :class:`ShardWorkerError` once the restart budget is spent.
    (Deterministic worker exceptions are *not* deaths — replaying
    them would just re-raise, so they surface immediately.)"""

    def __init__(self, shard: int, cause: str, detail: str):
        self.shard = shard
        self.cause = cause  # "crash" | "hang"
        self.detail = detail
        super().__init__(detail)


@dataclass(frozen=True)
class SupervisionPolicy:
    """The coordinator's fault-tolerance knobs (all off by default —
    the defaults reproduce the unsupervised engine exactly).

    ``checkpoint_every=k`` snapshots every worker at every k-th window
    barrier (0 disables).  ``heartbeat_timeout`` (process mode only)
    declares a worker hung when it sends nothing for that many
    wall-clock seconds mid-window; hung workers are SIGKILLed and
    treated as crashed.  ``max_restarts`` bounds *per-shard* restarts;
    0 means any death is fatal (reported with the worker's exit code /
    signal name).  The coordinator keeps each shard's latest snapshot
    in its own heap.  With ``max_restarts>0`` but
    ``checkpoint_every=0`` recovery still works — the replacement
    replays from window 0 (full re-run).
    """

    checkpoint_every: int = 0
    heartbeat_timeout: Optional[float] = None
    max_restarts: int = 0

    def __post_init__(self):
        if self.checkpoint_every < 0:
            raise ShardError(
                f"checkpoint_every {self.checkpoint_every} must be >= 0"
            )
        if self.max_restarts < 0:
            raise ShardError(f"max_restarts {self.max_restarts} must be >= 0")
        if self.heartbeat_timeout is not None and self.heartbeat_timeout <= 0:
            raise ShardError(
                f"heartbeat_timeout {self.heartbeat_timeout} must be > 0"
            )

    @property
    def active(self) -> bool:
        return (
            self.checkpoint_every > 0
            or self.max_restarts > 0
            or self.heartbeat_timeout is not None
        )


# ---------------------------------------------------------------------------
# The workload spec (the redesigned run API's input)
# ---------------------------------------------------------------------------


@dataclass
class WorkloadSpec:
    """A declarative, picklable simulation workload.

    The sharded engine cannot accept an assembled ``SensorNetwork`` —
    every worker process must build its own partition-local instance —
    so the run API takes a *description*: topology parameters, the
    Datalog program, the region strategy, network knobs, and the
    publish schedule.  ``run(spec, shards=None)`` executes the same
    spec on the classic single-process simulator, which is what the
    differential suite compares against.

    ``topology`` is ``{"kind": "grid", "m": ..., "n": ...}`` or
    ``{"kind": "random", "n": ..., "radius": ..., "side": ...,
    "seed": ...}``.  ``publishes`` is a list of ``(when, node_id,
    pred, args)``; ``net`` holds :class:`SensorNetwork` keyword
    arguments (``transport`` may be a :class:`TransportConfig` kwargs
    dict).  ``outputs`` names the derived predicates collected into
    the run report.
    """

    topology: Dict[str, Any]
    program: str
    publishes: List[Tuple[float, int, str, tuple]]
    outputs: Tuple[str, ...]
    seed: int = 0
    strategy: str = "virtual-grid"
    strategy_kwargs: Dict[str, Any] = field(default_factory=dict)
    window: float = 1e9
    scheme: str = "one-pass"
    routing: str = "bfs"
    net: Dict[str, Any] = field(default_factory=dict)
    max_events: int = 10_000_000
    telemetry_name: Optional[str] = None
    telemetry_dir: Optional[str] = None


def build_topology(spec: WorkloadSpec) -> Topology:
    """Construct the spec's topology (deterministic in its params)."""
    params = dict(spec.topology)
    kind = params.pop("kind", None)
    if kind == "grid":
        return GridTopology(params.pop("m"), params.pop("n", None))
    if kind == "random":
        return RandomGeometricTopology(**params)
    raise ShardError(f"unknown topology kind {kind!r}")


def _net_kwargs(spec: WorkloadSpec) -> Dict[str, Any]:
    kwargs = dict(spec.net)
    transport = kwargs.get("transport")
    if isinstance(transport, dict):
        kwargs["transport"] = TransportConfig(**transport)
    return kwargs


_UNSUPPORTED_NET = ("collisions", "battery_capacity", "self_repair")


def _validate_sharded(spec: WorkloadSpec, shards: int) -> None:
    if shards < 1:
        raise ShardError(f"shard count {shards} must be >= 1")
    for key in _UNSUPPORTED_NET:
        if spec.net.get(key):
            raise ShardError(
                f"net option {key!r} is not supported by the sharded "
                "engine (v1): it couples shards through global radio "
                "state; run with shards=None"
            )
    if float(spec.net.get("delay_base", 0.01)) <= 0:
        raise ShardError(
            "sharded runs need delay_base > 0: the conservative window "
            "lookahead is the minimum cross-border frame latency"
        )


# ---------------------------------------------------------------------------
# Spatial partition
# ---------------------------------------------------------------------------


def partition_topology(
    topology: Topology, shards: int
) -> Tuple[Dict[int, int], List[List[int]]]:
    """Partition node ids into ``shards`` spatially contiguous groups.

    Whole cells of the topology's uniform-grid index are assigned to
    shards in cell-coordinate order (column-major strips), balanced by
    cumulative node count.  Deterministic: same topology and shard
    count, same partition.  Returns ``(assignment, groups)`` where
    ``assignment[node_id] = shard`` and ``groups[shard]`` lists the
    shard's node ids.
    """
    if shards < 1:
        raise ShardError(f"shard count {shards} must be >= 1")
    total = len(topology)
    assignment: Dict[int, int] = {}
    groups: List[List[int]] = [[] for _ in range(shards)]
    seen = 0
    for _cell, ids in topology.spatial.cell_items():
        index = min(shards - 1, (seen * shards) // total)
        for node_id in ids:
            assignment[node_id] = index
        groups[index].extend(ids)
        seen += len(ids)
    return assignment, groups


# ---------------------------------------------------------------------------
# Callback freeze/thaw (status callbacks crossing the border)
# ---------------------------------------------------------------------------


def _freeze_message(message, known: Dict[Callable, str]):
    """Prepare a message for the wire: replace a known status callback
    with its registry marker (on a *copy* — the sender keeps retrying
    the original, whose local callback must survive).  Unknown
    callables cannot cross a process boundary and are rejected."""
    on_status = getattr(message, "on_status", None)
    if on_status is None or isinstance(on_status, str):
        return message
    marker = known.get(on_status)
    if marker is None:
        raise ShardError(
            f"message {message!r} carries a status callback "
            f"{on_status!r} that cannot cross a shard border; only "
            "registered callbacks (the engine's delivery tracker) may "
            "ride border-crossing envelopes"
        )
    frozen = copy.copy(message)
    frozen.on_status = marker
    return frozen


# ---------------------------------------------------------------------------
# The sharded radio
# ---------------------------------------------------------------------------


class ShardRadio(Radio):
    """A :class:`Radio` that turns frames to remote nodes into border
    records instead of scheduling their arrival locally.

    The sender half of every frame (:meth:`Radio._frame_departure`:
    energy accounting, loss fate, delay draw, per-link FIFO ordering)
    always runs in the sending shard — so per-link frame order and the
    keyed RNG stream positions are exactly the single-process ones —
    and the fixed arrival time ships with the record.  The whole
    send-side retry state machine (:class:`ReliableTransport`) runs
    unmodified; its receiver half and ack conclusion are bound to the
    records on the other side (:meth:`ShardWorker._inject`).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Border records produced since the last window barrier.
        self.outbox: List[tuple] = []
        self._local_ids: Optional[Set[int]] = None
        self._freeze: Callable = lambda message: message

    def configure_shard(self, local_ids: Set[int], freeze: Callable) -> None:
        self._local_ids = local_ids
        self._freeze = freeze

    def _is_remote(self, node_id: int) -> bool:
        return self._local_ids is not None and node_id not in self._local_ids

    def _require_stub_deliver(self, dst_id: int, deliver: Callable) -> None:
        owner = getattr(deliver, "__self__", None)
        if not isinstance(owner, _RemoteStub):
            raise ShardError(
                f"custom deliver callable for remote node {dst_id}: only "
                "Node.deliver destinations can cross a shard border"
            )

    def _send_frame(self, src_id, dst_id, message, deliver) -> None:
        if not self._is_remote(dst_id):
            super()._send_frame(src_id, dst_id, message, deliver)
            return
        arrival = self._frame_departure(
            src_id, dst_id, message, message.size_bytes
        )
        if arrival is None:
            return  # died on the sender side: nothing crosses
        if isinstance(message, AckMsg):
            mode = ACK
        else:
            transfer = self.transport._pending.get(
                (src_id, dst_id, message.msg_id)
            )
            if transfer is None:
                mode = DATA
            else:
                mode = REL  # a reliable data frame (first attempt or retry)
                deliver = transfer.deliver
            self._require_stub_deliver(dst_id, deliver)
        self.outbox.append((mode, arrival, src_id, dst_id, self._freeze(message)))


# ---------------------------------------------------------------------------
# One shard worker
# ---------------------------------------------------------------------------


class ShardWorker:
    """One shard's event loop: a partition-local network + engine, run
    window by window under the coordinator's conservative bounds.

    ``own_ids=None`` builds the whole network on the plain
    :class:`Radio` instead: the single-process run, which
    ``run(spec, shards=None)`` drives to quiescence in one window."""

    def __init__(self, spec: WorkloadSpec, topology: Topology,
                 own_ids: Optional[Set[int]] = None,
                 shard_id: Optional[int] = None):
        self.spec = spec
        self.shard_id = shard_id
        self.network = SensorNetwork(
            topology, seed=spec.seed, routing=spec.routing,
            frame_rng="keyed", node_subset=own_ids,
            radio_cls=Radio if own_ids is None else ShardRadio,
            **_net_kwargs(spec),
        )
        self.radio: ShardRadio = self.network.radio  # type: ignore[assignment]
        self.engine = GPAEngine(
            spec.program, self.network, strategy=spec.strategy,
            window=spec.window, scheme=spec.scheme,
            **dict(spec.strategy_kwargs),
        ).install()
        self._markers = {TRACK_DELIVERY: self.engine._track_delivery}
        if own_ids is not None:
            frozen = {self.engine._track_delivery: TRACK_DELIVERY}
            self.radio.configure_shard(
                self.network.local_ids,
                functools.partial(_freeze_message, known=frozen),
            )
        sim = self.network.sim
        for when, node_id, pred, args in spec.publishes:
            if node_id in self.network.local_ids:
                sim.schedule_at(
                    when, functools.partial(self.engine.publish, node_id, pred, args)
                )
        self._budget = spec.max_events
        self.windows_run = 0
        self.border_in = 0
        self.border_out = 0
        #: The next msg id this worker hands out.  :func:`serve` makes
        #: it the process-global counter for the length of each
        #: command, and it rides in every checkpoint, so a restored
        #: worker reuses exactly the ids its lost predecessor did.
        self.msg_id = (shard_id or 0) * _MSG_ID_STRIDE
        #: Which spawn of this shard the worker is (0 = original; a
        #: replacement after the n-th restart carries n).  Replay
        #: determinism never depends on it — it exists so fault hooks
        #: (tests, chaos benches) can target only the first life.
        self.incarnation = 0
        self._kill_windows: Set[int] = set()
        self._die: Optional[Callable[[], None]] = None

    # -- window protocol --------------------------------------------------

    def arm_kills(self, windows: Set[int], die: Callable[[], None]) -> None:
        """Arm injected worker_kill faults: when about to run a window
        whose global index is in ``windows``, run a small slice of it
        and then call ``die`` (SIGKILL in process mode, a raised
        death in inline mode)."""
        self._kill_windows = set(windows)
        self._die = die

    def run_window(self, t_end: Optional[float], records: Sequence[tuple],
                   beat: Optional[Callable[[], None]] = None):
        """Inject this window's border records, run events in
        ``[now, t_end)`` (every event when ``t_end`` is None), and
        return ``(next_time, outbox)``.

        ``windows_run`` doubles as the window's *global* index: the
        original worker runs every window from 0, and a restored
        worker resumes from its snapshot's count — so kill targeting
        and replay accounting agree across incarnations.  ``beat``
        (heartbeating process workers) is called between
        ``_BEAT_CHUNK``-event slices; when absent the window runs in
        one ``sim.run`` call, exactly as the unsupervised engine did.
        """
        for record in sorted(records, key=lambda r: (r[1], r[2], r[3])):
            self._inject(record)
        self.border_in += len(records)
        sim = self.network.sim
        if self._kill_windows and self.windows_run in self._kill_windows:
            sim.run(until=t_end, max_events=_KILL_SLICE, inclusive=False)
            self._die()  # never returns control to the window
        while True:
            budget = (
                self._budget if beat is None else min(self._budget, _BEAT_CHUNK)
            )
            processed = sim.run(
                until=t_end, max_events=budget, inclusive=False
            )
            self._budget -= processed
            if beat is not None:
                beat()
            if beat is None or processed < budget or self._budget <= 0:
                break
        nxt = sim.next_time
        if nxt is not None and (t_end is None or nxt < t_end):
            # Only a max_events stop leaves events below the bound.
            where = (
                "single-process run" if self.shard_id is None
                else f"shard {self.shard_id}"
            )
            raise ShardError(
                f"{where} exceeded max_events={self.spec.max_events} "
                "(runaway simulation?)"
            )
        out: List[tuple] = []
        if isinstance(self.radio, ShardRadio):  # the single run has none
            out, self.radio.outbox = self.radio.outbox, []
        self.windows_run += 1
        self.border_out += len(out)
        return nxt, out

    def _inject(self, record: tuple) -> None:
        mode, arrival, src, dst, message = record
        on_status = getattr(message, "on_status", None)
        if isinstance(on_status, str):
            # Rebind the frozen callback marker to this worker's engine.
            callback = self._markers.get(on_status)
            if callback is None:
                raise ShardError(f"unknown status-callback marker {on_status!r}")
            message.on_status = callback
        if mode == DATA:
            deliver = self.network.nodes[dst].deliver
        elif mode == REL:
            # The transport's own receiver half; its ack goes back to the
            # remote sender as an ACK record (lost, charged and
            # FIFO-ordered like any frame, exactly as in one process).
            deliver = functools.partial(
                self.radio.transport._on_data,
                (src, dst, message.msg_id), self.network.nodes[dst].deliver,
            )
        elif mode == ACK:
            deliver = functools.partial(
                self.radio.transport._on_ack, (dst, src, message.acked_msg_id)
            )
        else:
            raise ShardError(f"unknown border-record mode {mode!r}")
        self.network.sim.schedule_at(
            arrival,
            functools.partial(
                self.radio._frame_arrival, src, dst, message,
                message.size_bytes, deliver,
            ),
        )

    # -- results ----------------------------------------------------------

    def collect(self) -> Dict[str, Any]:
        sim = self.network.sim
        return {
            "shard": self.shard_id,
            "nodes": len(self.network.nodes),
            "rows": {pred: self.engine.rows(pred) for pred in self.spec.outputs},
            "metrics": self.network.metrics,
            "delivery": self.engine.delivery_report(),
            "events": sim.events_processed,
            "queue_hwm": sim.queue_hwm,
            "windows": self.windows_run,
            "border_in": self.border_in,
            "border_out": self.border_out,
        }


# ---------------------------------------------------------------------------
# Worker executors: one command loop, one handle, two connections
# ---------------------------------------------------------------------------


def _inline_die(shard: int) -> None:
    """Injected worker_kill in inline mode: there is no process to
    SIGKILL, so the death is a raised :class:`_WorkerDeath` the
    supervisor treats exactly like a pipe EOF."""
    raise _WorkerDeath(
        shard, "crash",
        "worker killed mid-window by an injected worker_kill fault "
        "(inline mode: simulated process death)",
    )


def _sigkill_self() -> None:  # pragma: no cover - dies before coverage
    """Injected worker_kill in process mode: a real, unannounced
    SIGKILL — the coordinator sees only the closed pipe."""
    os.kill(os.getpid(), signal.SIGKILL)


def _build(spec, topology, own_ids, shard_id, restore, incarnation, kills,
           die):
    """Build one shard's worker, or restore it from a checkpoint blob,
    and arm this incarnation's injected kills (``die`` is how the
    transport kills a worker).  Returns the worker, or the formatted
    traceback when that raised: :func:`serve` then answers every
    command with it."""
    try:
        if restore is None:
            worker = ShardWorker(spec, topology, own_ids, shard_id)
        else:
            worker = _checkpoint.restore(restore, topology)
        worker.incarnation = incarnation
        worker.arm_kills(set(kills), die)
        return worker
    except Exception:
        return traceback.format_exc()


def serve(worker, command: tuple,
          beat: Optional[Callable[[], None]] = None) -> tuple:
    """Answer one coordinator command on ``worker``: the whole command
    loop, shared by forked and inline workers.

    ``("start",)`` replies the earliest pending event time;
    ``("window", t_end, records)`` runs a window and replies
    ``(next_time, outbox)``; ``("replay", t_end, records)`` runs one
    again and replies only ``next_time`` (the coordinator routed its
    outbox before the crash); ``("checkpoint",)`` replies ``(blob,
    seconds)``; ``("finish",)`` replies the shard's results.  A reply
    is tagged with its command's name, or is ``("error", traceback)``
    when the worker raised.  An injected kill (:class:`_WorkerDeath`)
    is not an error and propagates.

    For the length of the command the process-global msg-id counter is
    the worker's own (:attr:`ShardWorker.msg_id`), so every shard
    keeps a disjoint id stream whichever process it runs in."""
    if isinstance(worker, str):
        return ("error", worker)  # the build failed
    name = command[0]
    saved = messages._msg_counter
    set_msg_id_base(worker.msg_id)
    try:
        if name == "start":
            value = worker.network.sim.next_time
        elif name in ("window", "replay"):
            value = worker.run_window(command[1], command[2], beat=beat)
            if name == "replay":
                value = value[0]
        elif name == "checkpoint":
            value = _checkpoint.capture(worker)
        elif name == "finish":
            value = worker.collect()
        else:
            raise ShardError(f"unknown worker command {name!r}")
        return (name, value)
    except _WorkerDeath:
        raise
    except Exception:
        return ("error", traceback.format_exc())
    finally:
        worker.msg_id = next(messages._msg_counter)
        messages._msg_counter = saved


class _Heartbeat:
    """Worker-side liveness beat: sends ``("hb",)`` up the pipe at
    most once per ``interval`` wall-clock seconds.  Called between
    event slices mid-window, so a worker grinding through a long
    window still proves it is alive."""

    def __init__(self, conn, interval: float):
        self.conn = conn
        self.interval = interval
        self._last = time.monotonic()

    def __call__(self) -> None:
        now = time.monotonic()
        if now - self._last >= self.interval:
            self._last = now
            self.conn.send(("hb",))


def _worker_process(conn, build, beat_interval=None) -> None:
    """Worker-process body: build the shard (or restore it), then
    answer commands with :func:`serve` until told to finish.  Runs
    under fork, so the topology arrives by inheritance (never
    pickled), and the worker's telemetry starts empty: the forked
    registry and trace are the parent's.  A coordinator that hangs up
    early just ends the loop."""
    obs.reset()
    worker = build(_sigkill_self)
    beat = None if beat_interval is None else _Heartbeat(conn, beat_interval)
    command = None
    with contextlib.suppress(EOFError):
        while command != ("finish",):
            command = conn.recv()
            reply = serve(worker, command, beat)
            spec = worker.spec if reply[0] == "finish" else None
            if spec is not None and spec.telemetry_name and obs.enabled():
                reply[1]["telemetry"] = obs.write_run_artifacts(
                    spec.telemetry_dir or ".",
                    f"{spec.telemetry_name}.shard{worker.shard_id}",
                    manifest_extra={"shard": worker.shard_id},
                )
            try:
                conn.send(reply)
            except Exception:  # an unpicklable reply is a worker error too
                conn.send(("error", traceback.format_exc()))


class _LocalConn:
    """The worker end of an inline handle: a connection whose worker
    lives in this process and runs each command when its reply is
    read.  Every command and reply still makes the pickle round trip
    a pipe would, so inline runs exercise the whole wire format,
    outboxes included, and a receiver never shares mutable message
    state (envelope paths, token partial lists) with the sender's
    retry copies."""

    def __init__(self, worker):
        self.worker = worker
        self._command: Optional[bytes] = None

    def send(self, command) -> None:
        self._command = pickle.dumps(command)

    def poll(self, timeout: float) -> bool:
        return True  # a reply is always ready: recv computes it

    def recv(self):
        command, self._command = pickle.loads(self._command), None
        reply = serve(self.worker, command)  # an injected kill propagates
        try:
            return pickle.loads(pickle.dumps(reply))
        except Exception:  # an unpicklable reply is a worker error too
            return ("error", traceback.format_exc())


class _Handle:
    """One shard worker as the coordinator sees it: commands go down a
    connection and tagged replies come back.  The connection is a
    forked worker process's pipe, or with ``inline`` a
    :class:`_LocalConn` serving the same commands in this process.

    With ``heartbeat_timeout`` set, window-serving receives poll the
    pipe instead of blocking: a worker that sends nothing — not even a
    beat — for the timeout is declared hung, SIGKILLed, and surfaced
    as a :class:`_WorkerDeath`; a closed pipe (the worker died)
    surfaces one carrying the exit code, including the signal name for
    unclean deaths.  (One process has nothing running concurrently to
    observe a hang, so an inline handle never times out.)"""

    def __init__(self, build, shard: int, inline: bool,
                 heartbeat_timeout: Optional[float] = None):
        self.shard = shard
        self.timeout = heartbeat_timeout
        self._expect: Optional[str] = None
        self.proc = None
        if inline:
            self.conn = _LocalConn(build(functools.partial(_inline_die, shard)))
            return
        if "fork" not in multiprocessing.get_all_start_methods():
            # Caught before any worker exists: process-mode workers
            # inherit the topology via fork copy-on-write, so platforms
            # without fork (e.g. Windows, macOS spawn-only
            # configurations) cannot run them at all.
            raise ShardError(
                "fork start method required: process-mode sharding "
                "replicates the topology to workers via fork copy-on-write "
                "and this platform offers only "
                f"{multiprocessing.get_all_start_methods()!r}; "
                "use inline=True instead"
            )
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        beat_interval = (
            None if heartbeat_timeout is None else heartbeat_timeout / 4.0
        )
        self.proc = ctx.Process(
            target=_worker_process, args=(child, build, beat_interval),
            daemon=True,
        )
        self.proc.start()
        child.close()

    # -- death reporting --------------------------------------------------

    def _exit_note(self) -> str:
        """How the worker process ended, for the death detail: the
        signal name for unclean deaths (satisfying the supervisor's
        and harness.TrialError's diagnosability contract), the exit
        code otherwise."""
        self.proc.join(timeout=10)
        code = self.proc.exitcode
        if code is None:  # pragma: no cover - join timed out
            return ("worker process died without reporting an error "
                    "(exit status unknown: process has not joined)")
        if code < 0:
            try:
                name = signal.Signals(-code).name
            except ValueError:  # pragma: no cover
                name = f"signal {-code}"
            return (f"worker process died uncleanly (killed by {name}, "
                    f"exit code {code})")
        return (f"worker process died without reporting an error "
                f"(exit code {code})")

    # -- the wire ---------------------------------------------------------

    def send(self, command: tuple) -> None:
        self._expect = command[0]
        try:
            self.conn.send(command)
        except (BrokenPipeError, OSError):
            raise _WorkerDeath(
                self.shard, "crash", self._exit_note()
            ) from None

    def recv(self):
        """The reply to the last command sent.  Window and replay
        replies are timed by the heartbeat; start, checkpoint and
        finish are not (they send no beats, and a large shard's build
        or snapshot can legitimately outlast the timeout — a death
        there still surfaces as EOF)."""
        timed = self._expect in ("window", "replay")
        deadline = (
            None if (self.timeout is None or not timed)
            else time.monotonic() + self.timeout
        )
        while True:
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
                if not self.conn.poll(remaining):
                    if self.proc.is_alive():
                        self.proc.kill()  # not listening: SIGKILL it
                    raise _WorkerDeath(
                        self.shard, "hang",
                        f"worker sent no heartbeat for {self.timeout}s "
                        f"(hung mid-window) and was killed; "
                        + self._exit_note(),
                    )
            try:
                message = self.conn.recv()
            except EOFError:
                raise _WorkerDeath(
                    self.shard, "crash", self._exit_note()
                ) from None
            if message[0] == "hb":
                if deadline is not None:
                    deadline = time.monotonic() + self.timeout
                continue
            break
        if message[0] == "error":
            raise ShardWorkerError(self.shard, message[1])
        return message[1]

    def call(self, command: tuple):
        self.send(command)
        return self.recv()

    def close(self) -> None:
        if self.proc is None:
            return  # an inline worker holds nothing to release
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=10)


# ---------------------------------------------------------------------------
# The coordinator (lockstep loop + supervision)
# ---------------------------------------------------------------------------


class _Supervisor:
    """The lockstep epoch loop, doubling as the worker supervisor.

    Fault-free behavior with supervision off is exactly the classic
    coordinator: each round, pick the conservative bound ``t_end = E +
    lookahead``, post every worker its window (and the border records
    addressed to it), collect outboxes, route them for the next round;
    terminate when no worker has pending events and no record is in
    flight.  Supervision adds, per the :class:`SupervisionPolicy`:

    * **window logs** — with ``max_restarts > 0`` every posted window
      ``(t_end, records)`` is retained per shard since its last
      checkpoint;
    * **checkpoint cadence** — every ``checkpoint_every`` completed
      windows each worker snapshots itself at the barrier
      (:mod:`repro.net.checkpoint`); the shard's log is then dropped,
      which is what bounds recovery replay;
    * **crash/hang detection** — worker deaths surface from the
      handles as :class:`_WorkerDeath`;
    * **deterministic restart** — a replacement is spawned from the
      last checkpoint (or from scratch when none exists), replays the
      retained windows with outboxes discarded (those records were
      already routed before the crash), then serves the interrupted
      window live.  Replay re-runs the identical keyed-RNG event
      sequence with the original msg ids, so the recovered run's
      fingerprint equals a fault-free run's.
    """

    def __init__(self, spec, topology, assignment, groups, lookahead,
                 policy: SupervisionPolicy, inline: bool,
                 kill_plan: Dict[int, tuple]):
        self.spec = spec
        self.topology = topology
        self.assignment = assignment
        self.groups = groups
        self.lookahead = lookahead
        self.policy = policy
        self.inline = inline
        self.kill_plan = kill_plan
        n = len(groups)
        self.handles: List[Any] = [None] * n
        self.pending: List[List[tuple]] = [[] for _ in range(n)]
        self.earliest: List[Optional[float]] = [None] * n
        #: Log retention is pointless when no restart may consume it.
        self.retain = policy.max_restarts > 0
        self.logs: List[List[tuple]] = [[] for _ in range(n)]
        #: shard -> its latest snapshot blob (absent until the first).
        self.blobs: Dict[int, bytes] = {}
        self.restarts = [0] * n
        #: Kills at windows <= this floor never re-arm on a
        #: replacement — they already fired (or their window passed),
        #: and re-firing during replay would dead-loop the recovery.
        self.kill_floor = [-1] * n
        self.windows = 0
        self.border = 0
        self.recoveries: List[Dict[str, Any]] = []
        self.replayed_windows = 0
        self.checkpoints = 0
        self.checkpoint_bytes = 0
        self.checkpoint_seconds = 0.0
        self.recovery_seconds = 0.0

    # -- spawning ---------------------------------------------------------

    def _spawn(self, shard: int):
        restore = self.blobs.get(shard)
        kills = [
            w for w in self.kill_plan.get(shard, ())
            if w > self.kill_floor[shard]
        ]
        build = functools.partial(
            _build, self.spec, self.topology, set(self.groups[shard]), shard,
            restore, self.restarts[shard], tuple(kills),
        )
        handle = _Handle(
            build, shard, self.inline, self.policy.heartbeat_timeout
        )
        self.handles[shard] = handle
        return handle

    def _call(self, shard: int, command: tuple):
        """Run a barrier command (start, checkpoint, finish) on one
        shard and return its reply, replacing the worker — replaying
        every logged window — until one answers."""
        while True:
            try:
                return self.handles[shard].call(command)
            except _WorkerDeath as death:
                self._recover(shard, death, live=False)

    # -- the epoch loop ---------------------------------------------------

    def run(self) -> List[Dict[str, Any]]:
        n = len(self.handles)
        for shard in range(n):
            self._spawn(shard)  # process workers build concurrently
        for shard in range(n):
            self.earliest[shard] = self._call(shard, ("start",))
        while True:
            horizon = None
            for value in self.earliest:
                if value is not None and (horizon is None or value < horizon):
                    horizon = value
            for records in self.pending:
                for record in records:
                    if horizon is None or record[1] < horizon:
                        horizon = record[1]
            if horizon is None:
                break  # globally quiescent
            t_end = horizon + self.lookahead
            posted, self.pending = self.pending, [[] for _ in range(n)]
            dead: Dict[int, _WorkerDeath] = {}
            for shard in range(n):
                if self.retain:
                    self.logs[shard].append((t_end, posted[shard]))
                try:
                    self.handles[shard].send(("window", t_end, posted[shard]))
                except _WorkerDeath as death:
                    dead[shard] = death
            for shard in range(n):
                death = dead.pop(shard, None)
                if death is None:
                    try:
                        nxt, outbox = self.handles[shard].recv()
                    except _WorkerDeath as exc:
                        death = exc
                if death is not None:
                    nxt, outbox = self._recover(shard, death, live=True)
                self.earliest[shard] = nxt
                self.border += len(outbox)
                for record in outbox:
                    self.pending[self.assignment[record[3]]].append(record)
            self.windows += 1
            every = self.policy.checkpoint_every
            if every and self.windows % every == 0:
                self._checkpoint_all()
        return self._finish_all()

    def _checkpoint_all(self) -> None:
        for shard in range(len(self.handles)):
            blob, seconds = self._call(shard, ("checkpoint",))
            self.blobs[shard] = blob
            self.logs[shard] = []
            self.checkpoints += 1
            self.checkpoint_bytes += len(blob)
            self.checkpoint_seconds += seconds
            if _obs.enabled:
                _inst.shard_checkpoints.inc()
                _inst.shard_checkpoint_bytes.inc(len(blob))
                _inst.shard_checkpoint_seconds.observe(seconds)

    def _finish_all(self) -> List[Dict[str, Any]]:
        return [
            self._call(shard, ("finish",)) for shard in range(len(self.handles))
        ]

    # -- recovery ---------------------------------------------------------

    def _recover(self, shard: int, death: _WorkerDeath, live: bool):
        """Replace a dead worker.  ``live=True`` means the death
        interrupted an in-flight window (the last log entry): the
        replacement replays everything before it, then serves that
        window live and its ``(next_time, outbox)`` is returned.
        ``live=False`` (death at a barrier: start, checkpoint or
        finish) replays the whole log — every logged window's records
        were already routed — and the caller asks again.

        Each death is booked against the shard's restart budget —
        raising a :class:`ShardWorkerError` (with the death's exit-code
        / signal / hang detail) once it is spent — and recorded for the
        run report and telemetry."""
        started = time.perf_counter()
        while True:
            self.restarts[shard] += 1
            if self.restarts[shard] > self.policy.max_restarts:
                raise ShardWorkerError(
                    shard,
                    f"{death.detail}\n(restart budget exhausted: "
                    f"{self.restarts[shard] - 1} of max_restarts="
                    f"{self.policy.max_restarts} restarts used)",
                )
            record = {
                "shard": shard,
                "window": self.windows,
                "cause": death.cause,
                "detail": death.detail,
                "replayed": 0,
            }
            self.recoveries.append(record)
            if _obs.enabled:
                _inst.shard_recoveries.labels(cause=death.cause).inc()
            self.kill_floor[shard] = max(self.kill_floor[shard], self.windows)
            try:
                result = self._rebuild(shard, record, live)
                break
            except _WorkerDeath as exc:
                death = exc
        elapsed = time.perf_counter() - started
        record["seconds"] = elapsed
        self.recovery_seconds += elapsed
        if _obs.enabled:
            _inst.shard_recovery_seconds.observe(elapsed)
        return result

    def _rebuild(self, shard: int, record: Dict[str, Any], live: bool):
        self.handles[shard].close()
        handle = self._spawn(shard)
        entries = self.logs[shard]
        for bound, records in entries[:-1] if live else entries:
            handle.call(("replay", bound, records))
            record["replayed"] += 1
            self.replayed_windows += 1
            if _obs.enabled:
                _inst.shard_replayed_windows.inc()
        return handle.call(("window",) + entries[-1]) if live else None

    # -- reporting / teardown ---------------------------------------------

    def report(self) -> Dict[str, Any]:
        return {
            "policy": asdict(self.policy),
            "restarts": sum(self.restarts),
            "recoveries": list(self.recoveries),
            "replayed_windows": self.replayed_windows,
            "checkpoints": self.checkpoints,
            "checkpoint_bytes": self.checkpoint_bytes,
            "checkpoint_seconds": self.checkpoint_seconds,
            "recovery_seconds": self.recovery_seconds,
        }

    def close(self) -> None:
        for handle in self.handles:
            if handle is not None:
                handle.close()


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------


@dataclass
class ShardRunReport:
    """Merged result of one run (sharded or single-process).

    ``shards == 0`` marks a single-process run.  ``fingerprint()``
    returns the event-identity digest the differential suite compares:
    result rows plus every order-independent counter family.  (The
    final simulation clock is deliberately excluded — sharded clocks
    stop at a window boundary, not at the last event.  ``supervision``
    is excluded too: a recovered run must fingerprint-match a
    fault-free one, which is the whole point.)

    ``supervision`` is populated only for supervised/chaos runs: the
    policy, total restarts, per-recovery records (shard, window,
    cause, windows replayed, wall-clock seconds), checkpoint count /
    bytes / capture seconds, and total recovery seconds.
    """

    rows: Dict[str, Set[tuple]]
    metrics: MetricsCollector
    delivery: Dict[str, Any]
    events_processed: int
    queue_hwm: int
    shards: int
    windows: int
    border_records: int
    per_shard: List[Dict[str, Any]]
    manifest: Optional[Dict[str, str]] = None
    supervision: Optional[Dict[str, Any]] = None

    def fingerprint(self) -> Dict[str, Any]:
        m = self.metrics
        return {
            "rows": {
                pred: tuple(sorted(repr(row) for row in rows))
                for pred, rows in sorted(self.rows.items())
            },
            "messages": m.total_messages,
            "bytes": m.total_bytes,
            "category_tx": dict(sorted(m.category_tx.items())),
            # Per-node energy sums are exact (each node lives in one
            # shard); only the cross-node total is rounded, because
            # float addition order differs between merge and inline.
            "energy": round(m.total_energy, 6),
            "dropped": m.dropped,
            "acks": m.acks,
            "retries": m.retries,
            "dup_suppressed": m.dup_suppressed,
            "retry_exhausted": m.retry_exhausted,
            "delivery": {
                k: v for k, v in sorted(self.delivery.items()) if k != "reason"
            },
            "give_up_reasons": dict(sorted(self.delivery.get("reason", {}).items())),
        }


def _merge_results(spec, results, shards, windows=0, border=0,
                   supervision=None) -> ShardRunReport:
    """Merge the workers' results into one run report.  With telemetry
    on and a ``telemetry_name``, the coordinator's manifest carries the
    shard summaries (and each worker's artifact paths, in process mode)
    next to the usual reproducibility envelope."""
    metrics = MetricsCollector()
    rows: Dict[str, Set[tuple]] = {pred: set() for pred in spec.outputs}
    delivery: Dict[str, Any] = {"delivered": 0, "gave_up": 0, "reason": {}}
    events = 0
    hwm = 0
    per_shard = []
    for result in results:
        metrics.merge(result["metrics"])
        for pred, shard_rows in result["rows"].items():
            rows[pred] |= shard_rows
        for key, value in result["delivery"].items():
            if key == "reason":
                for reason, count in value.items():
                    delivery["reason"][reason] = (
                        delivery["reason"].get(reason, 0) + count
                    )
            else:
                delivery[key] = delivery.get(key, 0) + value
        events += result["events"]
        hwm = max(hwm, result["queue_hwm"])
        summary = {
            "shard": result["shard"],
            "nodes": result["nodes"],
            "events": result["events"],
            "border_in": result["border_in"],
            "border_out": result["border_out"],
        }
        if result.get("telemetry"):
            summary["telemetry"] = result["telemetry"]
        per_shard.append(summary)
    report = ShardRunReport(
        rows=rows, metrics=metrics, delivery=delivery,
        events_processed=events, queue_hwm=hwm, shards=shards,
        windows=windows, border_records=border, per_shard=per_shard,
        supervision=supervision,
    )
    if spec.telemetry_name and obs.enabled():
        report.manifest = obs.write_run_artifacts(
            spec.telemetry_dir or ".",
            spec.telemetry_name,
            manifest_extra={
                "sharded": {
                    "shards": shards,
                    "windows": windows,
                    "border_records": border,
                    "per_shard": per_shard,
                }
            },
        )
    return report


# ---------------------------------------------------------------------------
# The run API
# ---------------------------------------------------------------------------


def _resolve_kill_plan(
    faults: Optional[FaultSchedule], shards: int
) -> Dict[int, tuple]:
    """Validate a chaos schedule against the run and reduce it to
    ``{shard: (kill windows...)}``.  Only worker_kill events are
    accepted — simulated faults couple shards through global radio
    state (the v1 restriction) and go through FaultInjector on the
    single-process engine instead."""
    if faults is None or not len(faults):
        return {}
    for event in faults.events:
        if event.kind != "worker_kill":
            raise ShardError(
                f"sharded runs accept only worker_kill fault events, got "
                f"{event.kind!r}: simulated faults couple shards through "
                "global radio state; run them with shards=None and a "
                "FaultInjector"
            )
        if not 0 <= event.shard < shards:
            raise ShardError(
                f"worker_kill targets shard {event.shard} but the run "
                f"has only {shards} shards"
            )
    return {s: tuple(ws) for s, ws in faults.kill_plan().items()}


def run(
    spec: WorkloadSpec,
    shards=None,
    inline: bool = False,
    topology: Optional[Topology] = None,
    *,
    checkpoint_every: int = 0,
    heartbeat_timeout: Optional[float] = None,
    max_restarts: int = 0,
    faults: Optional[FaultSchedule] = None,
) -> ShardRunReport:
    """Execute a workload spec and return its merged run report.

    ``shards=None`` runs the classic single-process simulator (the
    differential baseline: one :class:`ShardWorker` owning every node,
    run to quiescence); ``shards=k`` partitions the arena into ``k``
    spatial shards under conservative-window synchronization.  The
    default forks one worker process per shard; ``inline=True`` serves
    the same workers in this process instead, every command and reply
    still pickled as on the pipe — the mode the differential tests use.
    ``topology`` short-circuits topology construction when the
    caller already built it (it must match the spec's parameters —
    benches reuse one topology across the single/sharded comparison).

    Supervision knobs (sharded runs; all default off — see
    :class:`SupervisionPolicy`): ``checkpoint_every=k`` snapshots every
    worker at every k-th window barrier, kept in the coordinator's
    memory; ``max_restarts=r`` restarts a crashed or hung worker
    from its last checkpoint up to ``r`` times per shard, replaying
    the missed windows deterministically (the recovered run's
    fingerprint equals a fault-free run's); ``heartbeat_timeout=s``
    (process mode) additionally SIGKILLs and restarts a worker that
    stops heartbeating for ``s`` wall-clock seconds.  ``faults=``
    takes a :class:`~repro.net.faults.FaultSchedule` of
    ``worker_kill`` events to inject real worker deaths mid-window
    (the E25 chaos harness)."""
    if topology is None:
        topology = build_topology(spec)
    if shards is None:
        if faults is not None and len(faults):
            raise ShardError(
                "faults= needs a sharded run: worker_kill events target "
                "shard worker processes (pass shards=k); simulated "
                "faults go through FaultInjector instead"
            )
        worker = ShardWorker(spec, topology)
        worker.run_window(None, [])
        return _merge_results(spec, [worker.collect()], shards=0)
    _validate_sharded(spec, shards)
    policy = SupervisionPolicy(
        checkpoint_every=checkpoint_every,
        heartbeat_timeout=heartbeat_timeout,
        max_restarts=max_restarts,
    )
    kill_plan = _resolve_kill_plan(faults, shards)
    assignment, groups = partition_topology(topology, shards)
    lookahead = float(spec.net.get("delay_base", 0.01))
    supervisor = _Supervisor(
        spec, topology, assignment, groups, lookahead, policy, inline,
        kill_plan,
    )
    try:
        results = supervisor.run()
    finally:
        supervisor.close()
    supervision = (
        supervisor.report() if (policy.active or kill_plan) else None
    )
    return _merge_results(
        spec, results, shards, supervisor.windows, supervisor.border,
        supervision=supervision,
    )

