"""Structured telemetry export: JSONL events, Prometheus text, manifests.

Three artifact shapes, all file-based and dependency-free:

* :class:`EventSink` — an in-memory buffer of span/event records that
  serializes to JSON Lines (one record per line), the grep-able trace
  format;
* :func:`prometheus_snapshot` — the registry rendered in Prometheus
  text exposition format (``# HELP`` / ``# TYPE`` / samples), so
  snapshots diff cleanly and standard tooling can parse them;
* :func:`run_manifest` — the reproducibility envelope for one run:
  interpreter, platform, git revision, command line, plus whatever the
  caller knows (seed, program hash, topology).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional

from . import state
from .registry import REGISTRY, Counter, Gauge, Histogram, Registry


class EventSink:
    """Bounded in-memory buffer of telemetry records (dicts)."""

    def __init__(self, capacity: Optional[int] = 200_000):
        self.capacity = capacity
        self.records: List[dict] = []
        self.truncated = False

    def emit(self, record: dict) -> None:
        if self.capacity is not None and len(self.records) >= self.capacity:
            self.truncated = True
            return
        self.records.append(record)

    def clear(self) -> None:
        self.records.clear()
        self.truncated = False

    def write_jsonl(self, path: str) -> int:
        """Write one JSON object per line; returns records written.
        Non-JSON values (terms, tuples-as-keys, ...) degrade to repr."""
        with open(path, "w") as f:
            for record in self.records:
                f.write(json.dumps(record, default=repr))
                f.write("\n")
        return len(self.records)

    def __len__(self) -> int:
        return len(self.records)


#: The process-wide default sink spans and events append to.
SINK = EventSink()


def event(name: str, **fields) -> None:
    """Record a point-in-time telemetry event (no-op when disabled)."""
    if not state.enabled:
        return
    SINK.emit({"type": "event", "name": name, "wall_ts": time.time(),
               **fields})


def read_jsonl(path: str) -> List[dict]:
    """Parse a JSONL trace back into records (the round-trip helper)."""
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _render_labels(names, values) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{n}="{_escape(v)}"' for n, v in zip(names, values)
    )
    return "{" + pairs + "}"


def _escape(value: str) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _fmt_num(value) -> str:
    if isinstance(value, float):
        if value == float("inf"):
            return "+Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def prometheus_snapshot(registry: Registry = REGISTRY) -> str:
    """Render every registered series in Prometheus text format."""
    from . import instrument as _inst  # late: keeps family order stable

    _inst.catch_up()  # the folded families, level with their owners
    lines: List[str] = []
    for family in registry.families():
        lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for values, child in family.series():
            labels = _render_labels(family.labelnames, values)
            if isinstance(child, (Counter, Gauge)):
                lines.append(f"{family.name}{labels} {_fmt_num(child.value)}")
            elif isinstance(child, Histogram):
                cumulative = 0
                for bound, n in zip(
                    list(child.bounds) + [float("inf")], child.counts
                ):
                    cumulative += n
                    le = _render_labels(
                        family.labelnames + ("le",),
                        values + (_fmt_num(bound),),
                    )
                    lines.append(f"{family.name}_bucket{le} {cumulative}")
                lines.append(
                    f"{family.name}_sum{labels} {_fmt_num(child.sum)}"
                )
                lines.append(
                    f"{family.name}_count{labels} {_fmt_num(child.count)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------


def program_hash(text: str) -> str:
    """Stable content hash for a program source (manifest field)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _git_revision() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return out.stdout.strip() or None if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def run_manifest(**extra) -> Dict[str, object]:
    """Describe this run well enough to reproduce it.  ``extra`` is the
    caller's knowledge: seed, program hash, topology, scale, ..."""
    manifest: Dict[str, object] = {
        "wall_time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "argv": list(sys.argv),
        "git_revision": _git_revision(),
        "telemetry_env": os.environ.get("REPRO_TELEMETRY"),
    }
    manifest.update(extra)
    return manifest


def write_run_artifacts(
    out_dir: str,
    name: str,
    registry: Registry = REGISTRY,
    sink: EventSink = SINK,
    manifest_extra: Optional[dict] = None,
) -> Dict[str, str]:
    """Dump the full telemetry state of a run next to its results:
    ``<name>.trace.jsonl`` (spans + events), ``<name>.metrics.prom``
    (registry snapshot), ``<name>.manifest.json``.  Returns the paths
    keyed by artifact kind."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "trace": os.path.join(out_dir, f"{name}.trace.jsonl"),
        "metrics": os.path.join(out_dir, f"{name}.metrics.prom"),
        "manifest": os.path.join(out_dir, f"{name}.manifest.json"),
    }
    sink.write_jsonl(paths["trace"])
    with open(paths["metrics"], "w") as f:
        f.write(prometheus_snapshot(registry))
    manifest = run_manifest(
        experiment=name,
        trace_records=len(sink),
        trace_truncated=sink.truncated,
        **(manifest_extra or {}),
    )
    with open(paths["manifest"], "w") as f:
        json.dump(manifest, f, indent=2, default=repr)
    return paths
