"""Shard checkpoints: snapshot and restore one worker's replayable state.

The supervised sharded engine (:mod:`repro.net.shard`) recovers a
crashed or hung worker by restoring its last window-boundary snapshot
and deterministically replaying the border-record windows it missed.
That protocol only works if a snapshot captures *everything* the
replay's outcome depends on, and nothing tied to the dead process:

* the partition-local :class:`~repro.net.network.SensorNetwork` —
  nodes, radio (keyed frame-RNG stream positions, per-link FIFO
  cursors, transport retry/dedup state, the shard radio's pending
  reliable-transfer context), router (liveness view and routing
  searches in progress), metrics;
* the GPA engine — relation rows, derivation stores, delivery
  tracker, in-flight phase state;
* the event queue — pending frames, retry timers, scheduled publishes
  (every scheduled callable in the tree is a bound method or a
  ``functools.partial`` of one, never a closure, precisely so this
  pickle works: see the partial-not-lambda notes in ``radio.py``,
  ``transport.py``, ``dist/gpa.py``);
* the worker's msg-id cursor (:attr:`ShardWorker.msg_id`, which
  :func:`~repro.net.shard.serve` keeps current), so messages created
  during replay reuse the ids the pre-crash execution handed out
  (remote shards hold acks and dedup entries keyed on them).

What a snapshot deliberately does **not** carry is the topology: it is
immutable, shared by every worker, and potentially huge (the 100k-node
E19 arenas).  The pickler writes a persistent-id stub for the topology
object and, once built, its spatial index, and :func:`restore` rebinds
the stubs to the coordinator's instance, so a checkpoint grows with the
nodes the worker owns, not with the arena.  Everything else cached on
the topology stays out with it: the routers read the adjacency their
searches walk, and the geographic router the positions, through the
topology on every call and keep no reference of their own.

A snapshot is not small: the benchmark's 1 000-node worker snapshots
to 4.19 MB (4.5 MB while routing tables were built eagerly;
``net.checkpoint.bytes_per_ckpt`` in ``benchmarks/e2e``), about 4 KB
per owned node of ``Node`` objects, handler tables and per-node GPA
runtimes.  The router is under 0.1 MB of that: its liveness view and
the routing searches exactly as far as lookups have driven them
(:mod:`repro.net.routing`) — a restored worker resumes a
half-expanded search from its cursor.

Checkpoints are captured at conservative-window barriers only (the
worker is quiescent between ``run_window`` calls: no partially-applied
event, no half-sent frame), which is what makes restore + replay
*exactly* equal to having never crashed — pinned by the differential
fingerprint tests in ``tests/net/test_shard_recovery.py``.
"""

from __future__ import annotations

import io
import pickle
import time
from typing import Tuple, TYPE_CHECKING

from ..core.errors import NetworkError
from ..obs import instrument as _inst

if TYPE_CHECKING:  # pragma: no cover
    from .shard import ShardWorker
    from .topology import Topology

#: Persistent-id stubs for the shared, immutable objects a snapshot
#: must reference but never serialize.
_TOPOLOGY = "shard-checkpoint:topology"
_SPATIAL = "shard-checkpoint:spatial"


class CheckpointError(NetworkError):
    """A shard snapshot could not be captured or restored."""


class _Pickler(pickle.Pickler):
    """Pickler that writes stubs for the topology and its spatial
    index instead of serializing them."""

    def __init__(self, file, topology: "Topology"):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        # Looked up once: persistent_id runs for every object pickled.
        # An index never built is referenced by nothing, so none is
        # built here.  Both objects outlive the dump, so their ids are
        # not reused by anything it pickles.
        self._stubs = {id(topology): _TOPOLOGY}
        if topology._spatial is not None:
            self._stubs[id(topology._spatial)] = _SPATIAL

    def persistent_id(self, obj):
        return self._stubs.get(id(obj))


class _Unpickler(pickle.Unpickler):
    """Unpickler that rebinds the stubs to the coordinator's topology."""

    def __init__(self, file, topology: "Topology"):
        super().__init__(file)
        self._topology = topology

    def persistent_load(self, pid):
        if pid == _TOPOLOGY:
            return self._topology
        if pid == _SPATIAL:
            # Only a snapshot that referenced an index asks for one.
            return self._topology.spatial
        raise CheckpointError(f"unknown persistent id {pid!r} in checkpoint")


def capture(worker: "ShardWorker") -> Tuple[bytes, float]:
    """Snapshot ``worker`` at a window barrier.

    Returns ``(blob, seconds)`` — the serialized state and the
    wall-clock capture duration (the coordinator feeds both into the
    telemetry counters and the E25 bench's overhead table).
    """
    started = time.perf_counter()
    buffer = io.BytesIO()
    try:
        _Pickler(buffer, worker.network.topology).dump(worker)
    except Exception as exc:
        raise CheckpointError(
            f"shard {worker.shard_id} state is not snapshot-serializable: "
            f"{exc}"
        ) from exc
    return buffer.getvalue(), time.perf_counter() - started


def restore(blob: bytes, topology: "Topology") -> "ShardWorker":
    """Rebuild a worker from a snapshot, rebinding the topology stubs
    to ``topology``; its msg-id cursor comes back with it (so replayed
    sends reuse their original ids).  Telemetry counts what the worker
    does from here on."""
    worker: "ShardWorker" = _Unpickler(io.BytesIO(blob), topology).load()
    for owner in (worker.network.metrics, worker.network.radio, worker.engine):
        _inst.own(owner)
    return worker
