"""The shared metric families the instrumented layers feed.

Declared once here (registration is idempotent anyway) so that the
evaluator, simulator, radio and distributed engines agree on names and
label schemas, and so instrumentation call sites stay one-liners:

    from ..obs import state as _obs
    from ..obs import instrument as _inst
    ...
    if _obs.enabled:
        _inst.rule_firings.labels(rule=label).inc()

This module must stay import-cheap and free of repro dependencies —
it is pulled in by ``repro.core`` and ``repro.net`` at import time.
"""

from __future__ import annotations

import threading
import weakref

from . import state as _state
from .registry import COUNT_BUCKETS, REGISTRY

# -- core.eval --------------------------------------------------------------

rule_firings = REGISTRY.counter(
    "repro_rule_firings_total",
    "Head tuples produced by rule bodies (before dedup; in a staged XY "
    "component, those inside the stage being saturated), by rule",
    labelnames=("rule",),
)
rule_derived = REGISTRY.counter(
    "repro_rule_derived_total",
    "New tuples actually added by each rule (after dedup)",
    labelnames=("rule",),
)
fixpoint_iterations = REGISTRY.histogram(
    "repro_fixpoint_iterations",
    "Semi-naive rounds until a positive SCC reaches fixpoint; stages "
    "of an XY component",
    labelnames=("evaluator",),
    buckets=COUNT_BUCKETS,
)
delta_size = REGISTRY.histogram(
    "repro_delta_tuples",
    "Delta sizes: new tuples per predicate per semi-naive round; "
    "frontier rows per delta firing per XY stage",
    labelnames=("predicate",),
    buckets=COUNT_BUCKETS,
)
join_probes = REGISTRY.counter(
    "repro_join_probes_total",
    "Relation.candidates() probes performed during evaluation",
)
relation_scans = REGISTRY.counter(
    "repro_relation_scans_total",
    "Full relation scans (unindexed Relation.scan() calls) during "
    "evaluation",
)

# -- core.plan ---------------------------------------------------------------

plan_cache_hits = REGISTRY.counter(
    "repro_plan_cache_hits_total",
    "Compiled-plan cache hits",
)
plan_cache_misses = REGISTRY.counter(
    "repro_plan_cache_misses_total",
    "Compiled-plan cache misses (rule compilations)",
)
join_selectivity = REGISTRY.histogram(
    "repro_join_selectivity",
    "Per-execution join selectivity (matched / scanned candidate "
    "tuples), by rule",
    labelnames=("rule",),
    buckets=(0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
)

# -- core.vector (columnar batch executor) -----------------------------------

batch_rows = REGISTRY.counter(
    "repro_batch_rows_total",
    "Head tuples produced by vectorized batch rule executions",
)
vectorized_steps = REGISTRY.counter(
    "repro_vectorized_steps_total",
    "Plan steps executed as numpy column kernels",
)
fallback_steps = REGISTRY.counter(
    "repro_fallback_steps_total",
    "Batch executions abandoned to the tuple executor at runtime",
)

# -- net.sim / net.radio ----------------------------------------------------

sim_events = REGISTRY.counter(
    "repro_sim_events_total",
    "Discrete events processed by the simulator",
)
sim_queue_hwm = REGISTRY.gauge(
    "repro_sim_queue_depth_hwm",
    "High-water mark of the simulator event-queue depth",
)
radio_tx = REGISTRY.counter(
    "repro_radio_tx_total",
    "Radio transmissions, by phase category",
    labelnames=("category",),
)
radio_rx = REGISTRY.counter(
    "repro_radio_rx_total",
    "Radio receptions",
)
radio_drops = REGISTRY.counter(
    "repro_radio_drops_total",
    "Messages lost (loss, dead endpoint, collision)",
)
radio_collisions = REGISTRY.counter(
    "repro_radio_collisions_total",
    "Frames lost to channel contention specifically",
)

# -- net.transport (reliable delivery) --------------------------------------

radio_acks = REGISTRY.counter(
    "repro_radio_acks_total",
    "Reliable transfers confirmed by a link-layer acknowledgment",
)
radio_retries = REGISTRY.counter(
    "repro_radio_retries_total",
    "Frame retransmissions after an ack timeout",
)
radio_dup_suppressed = REGISTRY.counter(
    "repro_radio_dup_suppressed_total",
    "Duplicate frames suppressed by receiver-side (src, msg_id) dedup",
)
radio_retry_exhausted = REGISTRY.counter(
    "repro_radio_retry_exhausted_total",
    "Reliable transfers abandoned after the retry budget ran out",
)


# -- net.faults / recovery (fault injection, E20) ---------------------------

node_crashes = REGISTRY.counter(
    "repro_node_crashes_total",
    "Node deaths, by cause ('crash' fault injection, 'energy' battery "
    "depletion)",
    labelnames=("cause",),
)
node_recoveries = REGISTRY.counter(
    "repro_node_recoveries_total",
    "Nodes revived after a death (Radio.revive)",
)
link_faults = REGISTRY.counter(
    "repro_link_faults_total",
    "Link state transitions injected by the fault layer, by new state",
    labelnames=("state",),
)
ght_failovers = REGISTRY.counter(
    "repro_ght_failovers_total",
    "GHT lookups re-homed from a dead primary to a live replica",
)
ght_resyncs = REGISTRY.counter(
    "repro_ght_resyncs_total",
    "Anti-entropy transfers to recovered nodes (derived facts pulled "
    "from replica holders, window tuples from storage-region mates)",
)
tree_repairs = REGISTRY.counter(
    "repro_tree_repairs_total",
    "Routing self-repairs, by kind ('route' next-hop re-selection, "
    "'join' join-member substitution, 'launch' dead-origin join launch)",
    labelnames=("kind",),
)

# -- net.shard supervision (checkpoints + worker recovery, E25) -------------

shard_checkpoints = REGISTRY.counter(
    "repro_shard_checkpoints_total",
    "Shard worker snapshots captured at conservative-window barriers",
)
shard_checkpoint_bytes = REGISTRY.counter(
    "repro_shard_checkpoint_bytes_total",
    "Serialized size of captured shard snapshots",
)
shard_checkpoint_seconds = REGISTRY.histogram(
    "repro_shard_checkpoint_seconds",
    "Wall-clock time to capture one shard snapshot",
)
shard_recoveries = REGISTRY.counter(
    "repro_shard_recoveries_total",
    "Shard workers restarted by the supervisor, by cause "
    "('crash' unclean death, 'hang' heartbeat timeout)",
    labelnames=("cause",),
)
shard_replayed_windows = REGISTRY.counter(
    "repro_shard_replayed_windows_total",
    "Conservative windows re-executed during shard recovery",
)
shard_recovery_seconds = REGISTRY.histogram(
    "repro_shard_recovery_seconds",
    "Wall-clock time to restore a shard worker and replay its missed "
    "windows",
)

# -- dist.gpa / dist.localized ---------------------------------------------

gpa_messages = REGISTRY.counter(
    "repro_gpa_phase_messages_total",
    "GPA messages handled, by phase and join strategy",
    labelnames=("phase", "strategy"),
)
phase_latency = REGISTRY.histogram(
    "repro_phase_latency_seconds",
    "Simulated time from a phase's launch to its completion, by phase, "
    "join strategy, and evaluation mode ('barrier' | 'pipelined')",
    labelnames=("phase", "strategy", "mode"),
)
coordfree_programs = REGISTRY.counter(
    "repro_coordfree_programs_total",
    "Release decisions handed out per rule at engine construction, by "
    "verdict ('stream' | the reason the rule keeps Theorem 3's delay: "
    "'barrier', 'negation', 'multi-pass', 'feeds <pred>', ...)",
    labelnames=("verdict",),
)
pipeline_streamed = REGISTRY.counter(
    "repro_pipeline_streamed_derivations_total",
    "Derivations emitted by eagerly streamed (barrier-free) join "
    "tokens in pipelined mode",
)
result_latency = REGISTRY.histogram(
    "repro_result_latency_seconds",
    "Simulated update-to-first-derivation latency, by head predicate",
    labelnames=("predicate",),
)
localized_messages = REGISTRY.counter(
    "repro_localized_messages_total",
    "LocalizedEngine messages handled, by kind",
    labelnames=("kind",),
)

# -- repro.serve (multi-tenant serving, E21) ---------------------------------

tenant_msgs = REGISTRY.counter(
    "repro_tenant_msgs_total",
    "Radio transmissions attributed to one tenant's phase traffic",
    labelnames=("tenant",),
)
tenant_result_latency = REGISTRY.histogram(
    "repro_tenant_result_latency_seconds",
    "Simulated update-to-first-derivation latency, by tenant",
    labelnames=("tenant",),
)
tenant_rejections = REGISTRY.counter(
    "repro_tenant_rejections_total",
    "Tenant admissions refused or sessions cut off, by reason",
    labelnames=("tenant", "reason"),
)
placement_migrations = REGISTRY.counter(
    "repro_placement_migrations_total",
    "Storage regions migrated by the adaptive placement loop",
)
serve_load_imbalance = REGISTRY.gauge(
    "repro_serve_load_imbalance",
    "Last epoch's network-wide transmission-load imbalance (max/mean)",
)


# -- folded families ---------------------------------------------------------
#
# The radio, transport, vectorizer, plan-cache and three GPA families
# count nothing themselves.  Each catches up from a count its layer
# keeps anyway — an owner's ``tallies()``: ``(family, label values,
# count)`` — at Simulator.run()'s exit and when obs snapshots,
# resets or flips its switch; counts made while it is off stay out.

#: owner -> {(family, label values): the count the registry absorbed};
#: under ``_lock``, as engines may be built in other threads than runs.
_absorbed = weakref.WeakKeyDictionary()
_lock = threading.Lock()


def own(owner) -> None:
    """Fold the counts ``owner`` makes from now on into the registry."""
    with _lock:
        _absorbed[owner] = {(f, v): n for f, v, n in owner.tallies()}


def catch_up(*owners, zero: bool = False) -> None:
    """Add what the named owners (by default every live one) counted
    since their last catch-up.  ``zero``: they are about to zero their
    counts.  A collected owner stops adding; no family goes back."""
    record = _state.enabled
    with _lock:
        for owner in owners or list(_absorbed):
            seen = _absorbed.get(owner)
            if seen is None:
                continue  # not an owner (a merged or standalone collector)
            for family, values, n in owner.tallies():
                key = (family, values)
                if record and n > seen.get(key, 0):
                    labels = dict(zip(family.labelnames, values))
                    family.labels(**labels).inc(n - seen.get(key, 0))
                seen[key] = 0 if zero else n
