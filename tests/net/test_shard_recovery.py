"""Supervised sharded execution (E25): window checkpoints, worker
restart, and deterministic replay.

The contract under test is *fingerprint identity through failure*: a
run that loses workers to injected kills (or hangs) and recovers them
from checkpoints must produce exactly the event-identity digest of a
fault-free run — same rows, same message/byte/energy accounting, same
transport counters.  Alongside it: fault-free supervised runs must be
RNG-identical to unsupervised ones (supervision off the failure path
is free), replay must be bounded by the checkpoint cadence, and an
exhausted restart budget must surface the real cause of death."""

import time

import pytest

from repro import obs
from repro.net import checkpoint
from repro.net.faults import FaultSchedule
from repro.net.shard import (
    ShardError,
    ShardWorker,
    ShardWorkerError,
    run,
)
from tests.net.test_shard import SPECS
from tests.net.test_topology_routing import e19_round_spec

BASELINES = {}


def baseline(name):
    """The fault-free single-process report for a spec, computed once
    per test session (every supervised run is compared against it)."""
    if name not in BASELINES:
        BASELINES[name] = run(SPECS[name], shards=None)
    return BASELINES[name]


class TestSupervisedFaultFree:
    """Supervision with no failures must be invisible in the results."""

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_supervised_matches_unsupervised(self, name):
        report = run(SPECS[name], shards=4, inline=True,
                     checkpoint_every=3, max_restarts=2)
        assert report.fingerprint() == baseline(name).fingerprint()
        assert report.supervision["restarts"] == 0
        assert report.supervision["recoveries"] == []
        assert report.supervision["checkpoints"] > 0
        assert report.supervision["checkpoint_bytes"] > 0

    def test_unsupervised_report_has_no_supervision(self):
        report = run(SPECS["e1-grid-join"], shards=4, inline=True)
        assert report.supervision is None

    def test_supervision_records_policy(self):
        report = run(SPECS["e1-grid-join"], shards=2, inline=True,
                     checkpoint_every=5, max_restarts=1)
        assert report.supervision["policy"] == {
            "checkpoint_every": 5, "heartbeat_timeout": None,
            "max_restarts": 1,
        }


class TestWorkerKillRecovery:
    """Injected worker deaths recover to fingerprint identity."""

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_recovered_run_matches_fault_free(self, name):
        base = baseline(name)
        windows = run(SPECS[name], shards=4, inline=True).windows
        faults = FaultSchedule().worker_kill(shard=1, at_window=windows // 2)
        report = run(SPECS[name], shards=4, inline=True, checkpoint_every=3,
                     max_restarts=2, faults=faults)
        assert report.fingerprint() == base.fingerprint()
        assert report.supervision["restarts"] == 1
        (recovery,) = report.supervision["recoveries"]
        assert recovery["cause"] == "crash"
        assert recovery["shard"] == 1

    def test_replay_is_bounded_by_checkpoint_cadence(self):
        name = "e18-reliable"
        windows = run(SPECS[name], shards=4, inline=True).windows
        faults = (
            FaultSchedule()
            .worker_kill(shard=0, at_window=windows // 3)
            .worker_kill(shard=2, at_window=2 * windows // 3)
        )
        report = run(SPECS[name], shards=4, inline=True, checkpoint_every=4,
                     max_restarts=2, faults=faults)
        assert report.fingerprint() == baseline(name).fingerprint()
        assert report.supervision["restarts"] == 2
        for recovery in report.supervision["recoveries"]:
            # A crash can land at most checkpoint_every windows past the
            # last snapshot (the in-flight window is served live, not
            # replayed).
            assert recovery["replayed"] <= 4
            assert recovery["seconds"] >= 0.0

    def test_no_checkpoint_recovers_by_full_rerun(self):
        """max_restarts without checkpoint_every still recovers — the
        replacement rebuilds from scratch and replays from window 0."""
        name = "e7-lossy"
        faults = FaultSchedule().worker_kill(shard=1, at_window=5)
        report = run(SPECS[name], shards=4, inline=True, max_restarts=1,
                     faults=faults)
        assert report.fingerprint() == baseline(name).fingerprint()
        (recovery,) = report.supervision["recoveries"]
        assert recovery["replayed"] == 5

    def test_restored_worker_counts_on(self):
        """A worker restored from a snapshot feeds telemetry from there
        on: with its replayed windows sent twice, the run's radio
        family holds at least every frame the report counts."""
        name = "e1-grid-join"
        faults = FaultSchedule().worker_kill(shard=1, at_window=6)
        was = obs.enabled()
        obs.enable()
        obs.reset()
        try:
            report = run(SPECS[name], shards=4, inline=True,
                         checkpoint_every=2, max_restarts=1, faults=faults)
            obs.prometheus_snapshot()
            tx = obs.REGISTRY.get("repro_radio_tx_total")
            sent = sum(child.value for _v, child in tx.series())
        finally:
            obs.reset()
            if not was:
                obs.disable()
        assert report.supervision["restarts"] == 1
        assert sent >= report.metrics.total_messages > 0

    def test_two_window_checkpoints_recover_identically(self):
        name = "e1-grid-join"
        faults = FaultSchedule().worker_kill(shard=1, at_window=6)
        report = run(SPECS[name], shards=4, inline=True, checkpoint_every=2,
                     max_restarts=1, faults=faults)
        assert report.fingerprint() == baseline(name).fingerprint()
        assert report.supervision["restarts"] == 1

    @pytest.mark.parametrize("routing, at_window", [("bfs", 10), ("geo", 42)])
    def test_half_expanded_routing_tables_survive_restore(
            self, monkeypatch, routing, at_window):
        """Routing tables are searches in progress (parent map, queue,
        cursor) and live in every snapshot: a worker restored while
        some are half expanded resumes them where they stopped."""
        spec = e19_round_spec(routing)
        partial = []
        real_restore = checkpoint.restore

        def spying_restore(blob, topology):
            worker = real_restore(blob, topology)
            partial.append(sum(
                1 for parents, queue, cursor
                in worker.network.router._tables.values()
                if len(parents) > 1 and cursor < len(queue)
            ))
            return worker

        monkeypatch.setattr(checkpoint, "restore", spying_restore)
        faults = FaultSchedule().worker_kill(shard=1, at_window=at_window)
        report = run(spec, shards=2, inline=True, checkpoint_every=4,
                     max_restarts=1, faults=faults)
        assert report.supervision["restarts"] == 1
        assert len(partial) == 1 and partial[0] > 0
        assert report.fingerprint() == run(spec, shards=None).fingerprint()

    def test_process_mode_sigkill_recovers(self):
        """One fork-mode chaos smoke: a real SIGKILLed worker process,
        restored from checkpoint, replayed to fingerprint identity."""
        name = "e18-reliable"
        windows = run(SPECS[name], shards=4, inline=True).windows
        faults = FaultSchedule().worker_kill(shard=2, at_window=windows // 2)
        report = run(SPECS[name], shards=4, checkpoint_every=4,
                     max_restarts=2, faults=faults)
        assert report.fingerprint() == baseline(name).fingerprint()
        (recovery,) = report.supervision["recoveries"]
        assert recovery["cause"] == "crash"
        assert "SIGKILL" in recovery["detail"]

    def test_budget_exhaustion_surfaces_cause_of_death(self):
        faults = FaultSchedule().worker_kill(shard=0, at_window=3)
        with pytest.raises(ShardWorkerError) as excinfo:
            run(SPECS["e1-grid-join"], shards=4, max_restarts=0,
                faults=faults)
        assert excinfo.value.shard == 0
        assert "SIGKILL" in str(excinfo.value)
        assert "restart budget exhausted" in str(excinfo.value)

    def test_budget_counts_per_shard(self):
        faults = (
            FaultSchedule()
            .worker_kill(shard=1, at_window=2)
            .worker_kill(shard=1, at_window=6)
        )
        with pytest.raises(ShardWorkerError, match="restart budget"):
            run(SPECS["e1-grid-join"], shards=4, inline=True,
                checkpoint_every=2, max_restarts=1, faults=faults)


class TestTransportIdentity:
    """Inline and process workers share the worker, the command loop
    and the handle; only the connection differs.  So a run must report
    the same thing either way, supervised or recovering."""

    @staticmethod
    def _summary(report):
        return {
            "fingerprint": report.fingerprint(),
            "windows": report.windows,
            "border_records": report.border_records,
            "border": [(s["shard"], s["border_in"], s["border_out"])
                       for s in report.per_shard],
            "restarts": report.supervision["restarts"],
            "replayed_windows": report.supervision["replayed_windows"],
        }

    @pytest.mark.parametrize("killed", [False, True],
                             ids=["supervised", "worker-kill"])
    def test_inline_and_process_runs_report_the_same(self, killed):
        name = "e18-reliable"
        faults = (
            FaultSchedule().worker_kill(shard=1, at_window=7) if killed
            else None
        )
        summaries = {
            inline: self._summary(run(
                SPECS[name], shards=4, inline=inline, checkpoint_every=3,
                max_restarts=1, faults=faults,
            ))
            for inline in (True, False)
        }
        assert summaries[True] == summaries[False]
        assert summaries[True]["fingerprint"] == baseline(name).fingerprint()
        assert summaries[True]["restarts"] == int(killed)
        assert (summaries[True]["replayed_windows"] > 0) == killed


class TestHangDetection:
    def test_hung_worker_is_killed_and_recovered(self, monkeypatch):
        """A worker that stops making progress (and so stops
        heartbeating) is SIGKILLed by the supervisor and replaced; the
        recovered run keeps fingerprint identity."""
        original = ShardWorker.run_window

        def stalling(self, t_end, records, beat=None):
            if (self.shard_id == 1 and self.incarnation == 0
                    and self.windows_run == 4):
                time.sleep(60)  # never returns: SIGKILLed at ~1s
            return original(self, t_end, records, beat=beat)

        # Patched in the parent before run() forks the workers, so the
        # stall rides into shard 1's first incarnation only.
        monkeypatch.setattr(ShardWorker, "run_window", stalling)
        name = "e1-grid-join"
        report = run(SPECS[name], shards=4, checkpoint_every=2,
                     max_restarts=1, heartbeat_timeout=1.0)
        assert report.fingerprint() == baseline(name).fingerprint()
        (recovery,) = report.supervision["recoveries"]
        assert recovery["cause"] == "hang"
        assert recovery["shard"] == 1
        assert "heartbeat" in recovery["detail"]


class TestValidation:
    def test_faults_require_a_sharded_run(self):
        faults = FaultSchedule().worker_kill(shard=0, at_window=1)
        with pytest.raises(ShardError, match="shards"):
            run(SPECS["e1-grid-join"], shards=None, faults=faults)

    def test_simulated_faults_rejected_on_sharded_runs(self):
        faults = FaultSchedule().crash(1.0, 3)
        with pytest.raises(ShardError, match="worker_kill"):
            run(SPECS["e1-grid-join"], shards=2, inline=True, faults=faults)

    def test_kill_target_must_be_a_real_shard(self):
        faults = FaultSchedule().worker_kill(shard=7, at_window=1)
        with pytest.raises(ShardError, match="shard 7"):
            run(SPECS["e1-grid-join"], shards=2, inline=True, faults=faults)

    @pytest.mark.parametrize("knob, value", [
        ("checkpoint_every", -1),
        ("max_restarts", -1),
        ("heartbeat_timeout", 0.0),
    ])
    def test_bad_policy_knobs_rejected(self, knob, value):
        with pytest.raises(ShardError):
            run(SPECS["e1-grid-join"], shards=2, inline=True,
                **{knob: value})
