"""The sharded simulation engine (repro.net.shard).

Two pillars:

* **Differential identity** — a sharded run (any shard count, inline or
  process workers) must be *event-identical* to the single-process
  simulator on the same :class:`WorkloadSpec`: same result rows, same
  message/byte/energy accounting, same transport counters.  Checked via
  :meth:`ShardRunReport.fingerprint` on E1-style (grid join), E7-style
  (lossy unreliable) and E18-style (reliable + loss) workloads.

* **Border mechanics** — the spatial partition is deterministic and
  exhaustive; border-crossing frames preserve per-link FIFO order (a
  property-based test drives :class:`ShardRadio` directly); worker
  failures surface as :class:`ShardWorkerError` with the shard id; the
  v1 restrictions are rejected up front.
"""

import functools
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program
from repro.dist.gpa import GPAEngine
from repro.net.messages import Message
from repro.net.network import SensorNetwork
from repro.net.shard import (
    ShardError,
    ShardRadio,
    ShardRunReport,
    ShardWorkerError,
    WorkloadSpec,
    build_topology,
    partition_topology,
    run,
)
from repro.net.topology import GridTopology

JOIN_PROGRAM = """
r(X, T) :- publish_r(X, T).
s(X, T) :- publish_s(X, T).
j(X, T1, T2) :- r(X, T1), s(X, T2).
"""

PUBLISHES = [
    (0.0, 3, "publish_r", (1, "a")),
    (0.0, 14, "publish_s", (1, "b")),
    (0.0, 27, "publish_r", (2, "c")),
    (0.0, 8, "publish_s", (2, "d")),
    (0.0, 30, "publish_r", (3, "e")),
    (0.0, 11, "publish_s", (3, "f")),
]


def grid_spec(**net):
    return WorkloadSpec(
        topology={"kind": "grid", "m": 6},
        program=JOIN_PROGRAM,
        publishes=PUBLISHES,
        outputs=("j",),
        strategy="pa",
        net=net,
    )


def random_spec(**net):
    return WorkloadSpec(
        topology={"kind": "random", "n": 120, "radius": 1.6, "side": 10.0,
                  "seed": 3},
        program=JOIN_PROGRAM,
        publishes=PUBLISHES,
        outputs=("j",),
        strategy="virtual-grid",
        routing="geo",
        seed=3,
        net=net,
    )


SPECS = {
    "e1-grid-join": grid_spec(),
    "e7-lossy": grid_spec(loss_rate=0.15),
    "e18-reliable": grid_spec(loss_rate=0.2, reliable=True),
    "random-geo": random_spec(),
}


class TestDifferentialIdentity:
    """shards in {1, 2, 4} inline == single-process, per workload."""

    @pytest.mark.parametrize("name", sorted(SPECS))
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_matches_single_process(self, name, shards):
        spec = SPECS[name]
        baseline = run(spec, shards=None)
        sharded = run(spec, shards=shards, inline=True)
        assert sharded.fingerprint() == baseline.fingerprint()
        assert sharded.shards == shards

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_single_process_matches_hand_built_network(self, name):
        """The reference every sharded run is compared with, pinned
        apart from ShardWorker: the spec's keyed-RNG network and GPA
        engine built by hand, its publishes scheduled, and drained.
        Without this the sharded and single paths could drift together
        and still agree with each other."""
        spec = SPECS[name]
        network = SensorNetwork(
            build_topology(spec), seed=spec.seed, routing=spec.routing,
            frame_rng="keyed", **spec.net,
        )
        engine = GPAEngine(
            spec.program, network, strategy=spec.strategy,
            window=spec.window, scheme=spec.scheme, **spec.strategy_kwargs,
        ).install()
        for when, node_id, pred, args in spec.publishes:
            network.sim.schedule_at(
                when, functools.partial(engine.publish, node_id, pred, args)
            )
        network.run_all(spec.max_events)
        assert network.sim.pending == 0
        by_hand = ShardRunReport(
            rows={pred: engine.rows(pred) for pred in spec.outputs},
            metrics=network.metrics, delivery=engine.delivery_report(),
            events_processed=network.sim.events_processed,
            queue_hwm=network.sim.queue_hwm, shards=0, windows=0,
            border_records=0, per_shard=[],
        )
        report = run(spec, shards=None)
        assert report.fingerprint() == by_hand.fingerprint()
        assert report.events_processed == by_hand.events_processed
        assert report.queue_hwm == by_hand.queue_hwm

    def test_baseline_produces_the_join(self):
        report = run(SPECS["e1-grid-join"], shards=None)
        assert report.rows["j"] == {
            (1, "a", "b"), (2, "c", "d"), (3, "e", "f"),
        }

    def test_sharded_run_is_deterministic(self):
        spec = SPECS["e18-reliable"]
        first = run(spec, shards=4, inline=True)
        second = run(spec, shards=4, inline=True)
        assert first.fingerprint() == second.fingerprint()
        assert first.windows == second.windows
        assert first.border_records == second.border_records

    def test_process_workers_match_single_process(self):
        """One fork-mode smoke per suite run (spawning real workers)."""
        spec = SPECS["e18-reliable"]
        baseline = run(spec, shards=None)
        sharded = run(spec, shards=2)  # inline=False: real processes
        assert sharded.fingerprint() == baseline.fingerprint()

    def test_report_merges_shard_accounting(self):
        report = run(SPECS["e1-grid-join"], shards=4, inline=True)
        assert len(report.per_shard) == 4
        assert sum(s["nodes"] for s in report.per_shard) == 36
        assert sum(s["events"] for s in report.per_shard) == report.events_processed
        # Every border record leaves one shard and enters another.
        assert sum(s["border_out"] for s in report.per_shard) == report.border_records
        assert sum(s["border_in"] for s in report.per_shard) == report.border_records
        assert report.border_records > 0


class TestPartition:
    def test_partition_is_exhaustive_and_balanced(self):
        topology = GridTopology(8)
        assignment, groups = partition_topology(topology, 4)
        assert sorted(i for g in groups for i in g) == topology.node_ids
        assert set(assignment) == set(topology.node_ids)
        for shard, group in enumerate(groups):
            assert all(assignment[i] == shard for i in group)
            assert 8 <= len(group) <= 24  # balanced by cell runs

    def test_partition_is_deterministic(self):
        topology = build_topology(WorkloadSpec(
            topology={"kind": "random", "n": 200, "radius": 1.5, "side": 10.0,
                      "seed": 7},
            program="", publishes=[], outputs=(),
        ))
        first = partition_topology(topology, 3)
        second = partition_topology(topology, 3)
        assert first == second

    def test_single_shard_owns_everything(self):
        topology = GridTopology(5)
        assignment, groups = partition_topology(topology, 1)
        assert len(groups) == 1
        assert sorted(groups[0]) == topology.node_ids

    def test_zero_shards_rejected(self):
        with pytest.raises(ShardError):
            partition_topology(GridTopology(3), 0)


class TestValidation:
    @pytest.mark.parametrize("option", ["collisions", "battery_capacity",
                                        "self_repair"])
    def test_unsupported_net_options_rejected(self, option):
        value = 5.0 if option == "battery_capacity" else True
        with pytest.raises(ShardError, match=option):
            run(grid_spec(**{option: value}), shards=2, inline=True)

    def test_zero_lookahead_rejected(self):
        with pytest.raises(ShardError, match="delay_base"):
            run(grid_spec(delay_base=0.0), shards=2, inline=True)

    def test_unknown_topology_kind_rejected(self):
        spec = WorkloadSpec(topology={"kind": "torus"}, program="",
                            publishes=[], outputs=())
        with pytest.raises(ShardError, match="torus"):
            run(spec, shards=2, inline=True)

    def test_unsupported_options_still_run_single_process(self):
        report = run(grid_spec(collisions=True), shards=None)
        assert report.shards == 0

    def test_forkless_platform_rejected_up_front(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods",
            lambda: ["spawn", "forkserver"],
        )
        with pytest.raises(ShardError, match="fork start method required"):
            run(grid_spec(), shards=2)

    def test_forkless_platform_still_runs_inline(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"],
        )
        baseline = run(grid_spec(), shards=None)
        sharded = run(grid_spec(), shards=2, inline=True)
        assert sharded.fingerprint() == baseline.fingerprint()

    def test_worker_failure_names_the_shard(self):
        bad = WorkloadSpec(
            topology={"kind": "grid", "m": 4},
            program="j(X) :-",  # parse error inside the worker
            publishes=[], outputs=("j",),
        )
        with pytest.raises(ShardWorkerError) as excinfo:
            run(bad, shards=2, inline=True)
        assert excinfo.value.shard == 0
        assert "shard worker 0" in str(excinfo.value)
        assert excinfo.value.worker_traceback

    @pytest.mark.parametrize("inline", [True, False],
                             ids=["inline", "process"])
    def test_unpicklable_reply_is_a_worker_error(self, monkeypatch, inline):
        """A reply that cannot cross the wire surfaces as the shard's
        worker error in both modes, never as a raw pickling failure in
        the coordinator."""
        from repro.net.shard import ShardWorker

        collect = ShardWorker.collect
        monkeypatch.setattr(
            ShardWorker, "collect",
            lambda self: {**collect(self), "unpicklable": lambda: None},
        )
        with pytest.raises(ShardWorkerError) as excinfo:
            run(grid_spec(), shards=2, inline=inline)
        assert excinfo.value.shard == 0
        assert "pickle" in excinfo.value.worker_traceback.lower()


def _border_radio(seed=0, jitter=0.005, loss=0.0, reliable=False):
    """A 4x4 grid network owning only the left half, with a ShardRadio
    that turns right-half frames into border records."""
    network = SensorNetwork(
        GridTopology(4), seed=seed, delay_jitter=jitter, loss_rate=loss,
        reliable=reliable, frame_rng="keyed",
        node_subset={i for i in range(16) if i % 4 < 2},
        radio_cls=ShardRadio,
    )
    network.radio.configure_shard(network.local_ids, lambda message: message)
    return network


class TestShardRadio:
    def test_remote_frame_becomes_data_record(self):
        network = _border_radio()
        network.node(1).register_handler("ping", lambda n, m: None)
        network.radio.transmit(1, 2, Message("ping"), network.node(2).deliver)
        (mode, arrival, src, dst, _message), = network.radio.outbox
        assert (mode, src, dst) == ("data", 1, 2)
        assert arrival >= network.radio.delay_base

    def test_local_frame_stays_local(self):
        network = _border_radio()
        seen = []
        network.nodes[5].register_handler("ping", lambda n, m: seen.append(m))
        network.radio.transmit(1, 5, Message("ping"), network.nodes[5].deliver)
        network.run_all()
        assert len(seen) == 1
        assert network.radio.outbox == []

    def test_reliable_remote_frame_becomes_rel_record(self):
        network = _border_radio(reliable=True)
        network.radio.transmit(
            1, 2, Message("ping"), network.node(2).deliver, reliable=True
        )
        (mode, _arrival, src, dst, message), = network.radio.outbox
        assert (mode, src, dst) == ("rel", 1, 2)
        pending = network.radio.transport._pending[(1, 2, message.msg_id)]
        assert pending.message is message

    def test_records_pickle_roundtrip(self):
        network = _border_radio()
        network.radio.transmit(1, 2, Message("ping", payload_symbols=3),
                               network.node(2).deliver)
        restored = pickle.loads(pickle.dumps(network.radio.outbox))
        assert restored[0][:4] == network.radio.outbox[0][:4]
        assert restored[0][4].kind == "ping"

    def test_unregistered_callback_cannot_cross(self):
        import functools

        from repro.net.shard import _freeze_message

        network = _border_radio()
        network.radio.configure_shard(
            network.local_ids,
            functools.partial(_freeze_message, known={}),
        )
        message = Message("ping")
        message.on_status = lambda status: None  # not in any registry
        with pytest.raises(ShardError, match="status callback"):
            network.radio._send_frame(1, 2, message, network.node(2).deliver)

    @given(
        frames=st.lists(st.sampled_from([(1, 2), (5, 6), (9, 10)]),
                        min_size=1, max_size=40),
        jitter=st.floats(0.0, 0.05),
        loss=st.floats(0.0, 0.5),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_border_records_preserve_per_link_fifo(self, frames, jitter,
                                                   loss, seed):
        """Frames crossing the border keep per-link FIFO order: for any
        interleaving of sends over several links, any jitter and any
        loss rate, each directed link's surviving records carry strictly
        increasing arrival times in send order."""
        network = _border_radio(seed=seed, jitter=jitter, loss=loss)
        for src, dst in frames:
            network.radio.transmit(src, dst, Message("ping"),
                                   network.node(dst).deliver)
        per_link = {}
        for _mode, arrival, src, dst, _message in network.radio.outbox:
            per_link.setdefault((src, dst), []).append(arrival)
        for link, arrivals in per_link.items():
            assert arrivals == sorted(arrivals), link
            assert len(set(arrivals)) == len(arrivals), link


def _samples(path, family):
    """Sum of one family's samples in a Prometheus text snapshot."""
    with open(path) as f:
        return sum(
            float(line.rsplit(" ", 1)[1]) for line in f
            if re.match(rf"{family}(\{{|\s)", line)
        )


class TestWorkerTelemetry:
    def test_forked_workers_start_empty(self, tmp_path):
        """A forked shard worker reports its own shard only: none of the
        rule firings or spans its parent recorded before the fork, but
        all the frames its own shard sent."""
        was = obs.enabled()
        obs.enable()
        obs.reset()
        try:
            db = Database()
            db.assert_fact("p", (1,))
            evaluate(parse_program("q(X) :- p(X)."), db)
            parent_spans = {r["span_id"] for r in obs.SINK.records
                            if r["type"] == "span"}
            assert parent_spans
            spec = grid_spec()
            spec.telemetry_name, spec.telemetry_dir = "t", str(tmp_path)
            report = run(spec, shards=2)
        finally:
            obs.reset()
            if not was:
                obs.disable()
        shard_files = [tmp_path / f"t.shard{i}" for i in range(2)]
        tx = 0
        for stem in shard_files:
            prom = f"{stem}.metrics.prom"
            assert _samples(prom, "repro_rule_firings_total") == 0
            tx += _samples(prom, "repro_radio_tx_total")
            spans = {r.get("span_id") for r in
                     obs.read_jsonl(f"{stem}.trace.jsonl")}
            assert not spans & parent_spans
        assert tx == report.metrics.total_messages > 0
