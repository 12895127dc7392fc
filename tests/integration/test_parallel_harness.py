"""The unified benchmark trial runner: serial and parallel, sharded
trials included.

Every bench trial is a module-level function fully determined by its
arguments (each seeds its own RNGs), so fanning the grid across worker
processes must return the exact same list — order, values, Nones and
all.  This pins the contract ``run_trials`` documents and the benches
rely on.
"""

import os
import sys
import warnings

import pytest

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "benchmarks"
)
sys.path.insert(0, os.path.abspath(BENCH_DIR))

from harness import TrialError, run_trials  # noqa: E402


def square_plus(x, offset):
    return x * x + offset


def maybe_none(x, offset):
    return None if (x + offset) % 3 == 0 else x + offset


TRIALS = [dict(x=x, offset=o) for x in range(6) for o in (0, 1)]


def test_serial_runner_order():
    assert run_trials(square_plus, TRIALS) == [
        t["x"] * t["x"] + t["offset"] for t in TRIALS
    ]


def test_parallel_matches_serial():
    assert run_trials(square_plus, TRIALS, parallel=3) == run_trials(
        square_plus, TRIALS
    )


def test_parallel_preserves_nones_and_order():
    assert run_trials(maybe_none, TRIALS, parallel=2) == run_trials(
        maybe_none, TRIALS
    )


def test_single_process_falls_back_to_serial():
    assert run_trials(square_plus, TRIALS, parallel=1) == run_trials(
        square_plus, TRIALS
    )


def test_single_trial_falls_back_to_serial():
    assert run_trials(square_plus, TRIALS[:1], parallel=4) == [0]


def test_unified_runner_emits_no_deprecation_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        run_trials(square_plus, TRIALS, parallel=2)


def explode_on(x, offset, seed=0):
    if x == 4 and offset == 1:
        raise ValueError(f"boom at x={x}")
    return x + offset + seed


def shard_explode(x):
    if x == 3:
        exc = RuntimeError(f"shard boom at x={x}")
        exc.shard = 2  # what a ShardWorkerError carries
        raise exc
    return x


def test_worker_failure_carries_trial_params():
    trials = [dict(x=x, offset=o, seed=x * 10 + o) for x in range(6) for o in (0, 1)]
    with pytest.raises(TrialError) as excinfo:
        run_trials(explode_on, trials, parallel=3)
    err = excinfo.value
    assert err.params == dict(x=4, offset=1, seed=41)
    assert err.index == trials.index(dict(x=4, offset=1, seed=41))
    assert err.shard is None
    # The message names the seed and carries the worker's traceback,
    # not a bare pool traceback.
    assert "seed=41" in str(err)
    assert "boom at x=4" in err.worker_traceback
    assert "ValueError" in err.worker_traceback


def test_worker_failure_message_without_seed():
    trials = [dict(x=x, offset=1) for x in range(6)]
    with pytest.raises(TrialError) as excinfo:
        run_trials(explode_on, trials, parallel=2)
    assert excinfo.value.params == dict(x=4, offset=1)
    assert "seed=" not in str(excinfo.value).split("---")[0]


def test_worker_failure_carries_shard_id():
    trials = [dict(x=x) for x in range(6)]
    with pytest.raises(TrialError) as excinfo:
        run_trials(shard_explode, trials, parallel=2)
    err = excinfo.value
    assert err.shard == 2
    assert err.params == dict(x=3)
    assert "shard worker 2" in str(err)
    assert "shards=None" in str(err)  # points at the serial repro


def sharded_chaos_trial(m, kill_window, shards=None, max_restarts=0):
    """A real sharded run with an injected worker death and no restart
    budget — the worker's SIGKILL must surface through the pool."""
    from repro.net.faults import FaultSchedule
    from repro.net.shard import run
    from tests.net.test_shard import grid_spec

    spec = grid_spec()
    faults = FaultSchedule().worker_kill(shard=1, at_window=kill_window)
    return run(spec, shards=shards, max_restarts=max_restarts,
               faults=faults).windows


def test_sharded_worker_death_surfaces_signal_in_trial_error():
    """Satellite pin (E25): an unclean shard-worker death inside a
    parallel trial reports the killing signal by name, plus the shard,
    through TrialError."""
    trials = [dict(m=6, kill_window=3, shards=2)] * 2
    with pytest.raises(TrialError) as excinfo:
        run_trials(sharded_chaos_trial, trials, parallel=2)
    err = excinfo.value
    assert err.shard == 1
    assert "SIGKILL" in str(err)
    assert "exit code -9" in err.worker_traceback
    assert "restart budget exhausted" in err.worker_traceback
