"""Shard checkpoints (repro.net.checkpoint): snapshot capture/restore,
the worker's msg-id cursor as serve() scopes it and topology stub
rebinding (E25's recovery substrate)."""

import io

import pytest

from repro.net import checkpoint, messages
from repro.net.checkpoint import CheckpointError, capture, restore
from repro.net.messages import Message
from repro.net.shard import ShardWorker, build_topology, serve
from tests.net.test_shard import SPECS

LOOKAHEAD = 0.01  # the specs' default delay_base


def _worker(name="e1-grid-join"):
    """A single-shard worker owning the whole arena (no border traffic,
    so windows can be driven without a coordinator)."""
    spec = SPECS[name]
    topology = build_topology(spec)
    return ShardWorker(spec, topology, set(topology.node_ids), 0), topology


def _drive(worker, windows=None):
    """Run up to ``windows`` conservative windows (all of them when
    None) through :func:`serve`, as a coordinator would; returns the
    number actually run."""
    ran = 0
    _tag, nxt = serve(worker, ("start",))
    while nxt is not None and (windows is None or ran < windows):
        tag, (nxt, outbox) = serve(worker, ("window", nxt + LOOKAHEAD, []))
        assert tag == "window"
        assert outbox == []  # single shard: nothing crosses a border
        ran += 1
    return ran


def _capture(worker):
    tag, (blob, seconds) = serve(worker, ("checkpoint",))
    assert tag == "checkpoint"
    return blob, seconds


class TestServe:
    def test_worker_keeps_its_own_msg_id_stream(self):
        """A command runs on the worker's msg-id cursor and leaves the
        process counter where it was."""
        worker, _topology = _worker()
        assert worker.msg_id == 0  # shard 0's stride
        before = Message("ping").msg_id
        _drive(worker, windows=3)
        assert worker.msg_id > 0
        assert Message("ping").msg_id == before + 1
        stride = ShardWorker(SPECS["e1-grid-join"],
                             build_topology(SPECS["e1-grid-join"]),
                             {0}, 3).msg_id
        assert stride == 3 << 40

    def test_worker_errors_become_error_replies(self):
        worker, _topology = _worker()
        tag, trace = serve(worker, ("window", None, [("bogus",) * 5]))
        assert tag == "error"
        assert "unknown border-record mode" in trace
        tag, trace = serve(worker, ("rewind",))
        assert tag == "error"
        assert "unknown worker command 'rewind'" in trace


class TestCaptureRestore:
    def test_restore_rebinds_topology_stubs(self):
        worker, topology = _worker()
        _drive(worker, windows=3)
        blob, seconds = _capture(worker)
        restored = restore(blob, topology)
        assert restored.network.topology is topology
        assert restored.network.topology.spatial is topology.spatial
        assert restored.windows_run == worker.windows_run
        assert seconds >= 0.0

    def test_restored_continuation_matches_original(self):
        """Capture mid-run, finish the original, then finish the
        restored copy: both executions must be event-identical."""
        worker, topology = _worker("e18-reliable")
        _drive(worker, windows=8)
        blob, _ = _capture(worker)

        _drive(worker)
        original = worker.collect()

        messages.set_msg_id_base(0)  # the process counter plays no part
        restored = restore(blob, topology)
        assert restored.windows_run == 8
        _drive(restored)
        continued = restored.collect()

        assert continued["rows"] == original["rows"]
        assert (continued["metrics"].total_messages
                == original["metrics"].total_messages)
        assert (continued["metrics"].total_bytes
                == original["metrics"].total_bytes)
        assert continued["delivery"] == original["delivery"]

    def test_restore_resumes_msg_id_cursor(self):
        worker, topology = _worker()
        _drive(worker, windows=2)
        blob, _ = _capture(worker)
        cursor = worker.msg_id
        _drive(worker, windows=2)  # the original hands out more ids
        assert worker.msg_id > cursor
        assert restore(blob, topology).msg_id == cursor

    def test_snapshot_never_holds_the_adjacency(self):
        """Routing searches read the topology's adjacency through the
        stubbed topology and keep no reference of their own: a driven
        worker pickles no part of the adjacency."""
        worker, topology = _worker()
        _drive(worker, windows=3)  # the searches walk the adjacency
        adjacency = topology.adjacency
        assert worker.network.router._tables
        reached = []

        class Watching(checkpoint._Pickler):
            def persistent_id(self, obj):
                if obj is adjacency or obj is adjacency.get(0):
                    reached.append(obj)
                return super().persistent_id(obj)

        Watching(io.BytesIO(), topology).dump(worker)
        assert reached == []

    def test_unbuilt_index_is_not_built_by_a_capture(self):
        worker, topology = _worker()
        assert topology._spatial is None
        blob, _ = capture(worker)
        assert topology._spatial is None
        topology.spatial
        assert capture(worker)[0] == blob

    def test_unpicklable_state_raises_checkpoint_error(self):
        worker, _topology = _worker()
        worker.poison = lambda: None  # closures never pickle
        with pytest.raises(CheckpointError, match="shard 0"):
            capture(worker)

    def test_unknown_persistent_id_rejected(self):
        worker, topology = _worker()
        blob, _ = capture(worker)
        # A blob is bound to the checkpoint module's stub vocabulary.
        bad = blob.replace(b"shard-checkpoint:topology",
                           b"shard-checkpoint:toxology")
        with pytest.raises(CheckpointError, match="persistent id"):
            restore(bad, topology)
