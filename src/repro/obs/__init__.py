"""repro.obs — unified telemetry: metric registry, spans, exporters.

The observability layer behind the evaluation experiments (E1–E16):
the evaluator, simulator, radio, and distributed engines feed a
process-wide metric registry and emit hierarchical spans; exporters
turn a run into a JSONL trace, a Prometheus-style text snapshot, and a
reproducibility manifest.

Telemetry is **off by default** and costs one flag check per
instrumentation site when off.  Enable with ``REPRO_TELEMETRY=1`` in
the environment or programmatically::

    from repro import obs

    obs.enable()
    ...  # run an experiment
    print(obs.prometheus_snapshot())
    obs.write_run_artifacts("out/", "myrun")

See ``docs/OBSERVABILITY.md`` for the full tour.
"""

from __future__ import annotations

import os

from . import state
from .export import (
    SINK,
    EventSink,
    event,
    program_hash,
    prometheus_snapshot,
    read_jsonl,
    run_manifest,
    write_run_artifacts,
)
from .registry import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    REGISTRY,
    Counter,
    Family,
    Gauge,
    Histogram,
    Registry,
)
from .spans import Span, current_span, span
from . import instrument as _inst  # after spans: keeps family order stable

if os.environ.get("REPRO_TELEMETRY", "").strip() not in ("", "0", "false"):
    state.enabled = True


def enable() -> None:
    """Turn telemetry on for the whole process (counts the layers made
    while it was off stay out of the registry)."""
    _inst.catch_up()
    state.enabled = True


def disable() -> None:
    """Turn telemetry off (existing metrics/trace are kept until
    :func:`reset`)."""
    _inst.catch_up()
    state.enabled = False


def enabled() -> bool:
    """Is telemetry currently on?"""
    return state.enabled


def reset() -> None:
    """Zero all metrics and drop the collected trace (the flag is
    untouched) — call between runs that share a process."""
    _inst.catch_up()  # counts not yet absorbed die with the run
    REGISTRY.reset()
    SINK.clear()


__all__ = [
    "COUNT_BUCKETS", "DEFAULT_BUCKETS", "Counter", "EventSink", "Family",
    "Gauge", "Histogram", "REGISTRY", "Registry", "SINK", "Span",
    "current_span", "disable", "enable", "enabled", "event",
    "program_hash", "prometheus_snapshot", "read_jsonl", "reset",
    "run_manifest", "span", "state", "write_run_artifacts",
]
