"""The settable surface of the swept entry points, pinned.

Each signature below is spelled out as its parameters and defaults, so
a new option (or a changed default) shows up in the diff that adds it,
next to its reason.  An option whose only callers are tests does not
belong here: it becomes a module constant that tests monkeypatch
(``transport.TIMEOUT_JITTER``, ``topology.MAX_TRIES``,
``columnar.INITIAL_CAPACITY``) or goes.
"""

import importlib
import importlib.util
import inspect
import os
import sys

import pytest

from repro.core.columnar import Interner
from repro.dist.gpa import Candidate, GPAEngine
from repro.dist.regions import VirtualGridRegions
from repro.net import shard
from repro.net.faults import FaultSchedule
from repro.net.network import SensorNetwork
from repro.net.topology import RandomGeometricTopology
from repro.net.transport import TransportConfig
from repro.net.visual import heatmap
from repro.workloads.vehicles import BattlefieldWorkload

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "benchmarks"
)
sys.path.insert(0, os.path.abspath(BENCH_DIR))

import harness  # noqa: E402


def knobs(obj) -> str:
    """``obj``'s signature without annotations: names, defaults (a
    class default by its name), ``*`` before keyword-only ones."""
    out = []
    star = False
    for p in inspect.signature(obj).parameters.values():
        if p.kind is p.VAR_KEYWORD:
            out.append(f"**{p.name}")
            continue
        if p.kind is p.KEYWORD_ONLY and not star:
            out.append("*")
            star = True
        if p.default is p.empty:
            out.append(p.name)
        else:
            default = p.default
            shown = default.__name__ if isinstance(default, type) else repr(default)
            out.append(f"{p.name}={shown}")
    return ", ".join(out)


PINNED = {
    "GPAEngine": (
        GPAEngine,
        "program, network, strategy='pa', window=1000000000.0, "
        "registry=None, allow_local_nonrecursive=False, scheme='one-pass', "
        "fault_tolerant=False, tenant=None, ght=None, mode='barrier', "
        "**strategy_kwargs",
    ),
    "SensorNetwork": (
        SensorNetwork,
        "topology, seed=0, delay_base=0.01, delay_jitter=0.005, "
        "loss_rate=0.0, clock_skew=0.0, battery_capacity=None, "
        "collisions=False, reliable=False, transport=None, ght_replicas=1, "
        "self_repair=False, routing='bfs', frame_rng='seq', "
        "node_subset=None, radio_cls=Radio",
    ),
    "shard.run": (
        shard.run,
        "spec, shards=None, inline=False, topology=None, *, "
        "checkpoint_every=0, heartbeat_timeout=None, max_restarts=0, "
        "faults=None",
    ),
    "SupervisionPolicy": (
        shard.SupervisionPolicy,
        "checkpoint_every=0, heartbeat_timeout=None, max_restarts=0",
    ),
    "TransportConfig": (TransportConfig, "max_retries=5"),
    "harness.run_trials": (
        harness.run_trials,
        "fn, trials, parallel=None, telemetry_name=None",
    ),
    "VirtualGridRegions": (VirtualGridRegions, "network, leg_bound=None"),
    "RandomGeometricTopology": (
        RandomGeometricTopology,
        "n, radius, side=10.0, seed=0, edge_method='grid'",
    ),
    "Interner": (Interner, ""),
    "Candidate": (Candidate, "head_args, derivation, neg_patterns"),
    "FaultSchedule.random_churn": (
        FaultSchedule.random_churn, "node_ids, rate, horizon, seed, slots=4",
    ),
    "BattlefieldWorkload": (
        BattlefieldWorkload,
        "topology, n_enemy=3, n_friendly=2, epochs=5, seed=0",
    ),
    "heatmap": (heatmap, "network, values, title=''"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_signature_is_pinned(name):
    obj, expected = PINNED[name]
    assert knobs(obj) == expected


@pytest.mark.parametrize("module", ["repro.core.topdown", "repro.net.trace"])
def test_deleted_modules_stay_deleted(module):
    assert importlib.util.find_spec(module) is None


@pytest.mark.parametrize("module, name", [
    ("repro.net.checkpoint", "CheckpointStore"),
    ("repro.core.unify", "unify_sequences"),
    ("repro.core", "TopDownEvaluator"),
    ("repro.net", "Tracer"),
], ids=["CheckpointStore", "unify_sequences", "TopDownEvaluator", "Tracer"])
def test_deleted_names_stay_deleted(module, name):
    # By module path: ``repro.core.unify`` as an attribute is the
    # function the package re-exports, not the module.
    assert not hasattr(importlib.import_module(module), name)
