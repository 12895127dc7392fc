"""Layer tracer for the end-to-end benchmark's traced run.

A ``sys.setprofile`` hook that attributes host time to *layers*: a call
into a function defined in ``src/repro/<pkg>/<mod>.py`` opens a span for
layer ``<pkg>.<mod>`` when it crosses over from a different layer; the
benchmark's own files are layer ``bench``.  Calls into anything else
(stdlib, networkx, numpy, C functions) open no span, so their time is
charged to the layer on top of the stack — ``nx.bfs_predecessors``
called from ``net/routing.py`` is ``net.routing`` time.

A span's self time is its duration minus the part its child spans
cover, so the layers' self times sum to the root span's duration
exactly (up to float rounding): :func:`LayerTracer.run` opens the root
``bench`` span around the traced callable.

Spans of one request share a ``root`` id: a new id starts at every span
opened directly under the root span or under a ``net.sim`` span, i.e.
once per top-level call of the harness and once per simulator event.

The hook runs on every Python call/return and every C call, foreign
ones too, which multiplies the run time several-fold and inflates a
layer by the number of calls made under it.  The end-to-end numbers are
therefore never taken from a traced run; the traced total over the
untraced time is reported as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import networkx as nx

HERE = os.path.dirname(os.path.abspath(__file__))

#: Layers the benchmark reports (``<layer>.self_s``, ``.calls``,
#: ``.entries``).  Every other ``repro`` module is traced under its own
#: name in the span file and summed into ``other`` in the report.
LAYERS = (
    "core.parser", "core.plan", "core.eval", "core.vector", "core.columnar",
    "core.unify", "core.builtins", "core.derivations", "core.terms",
    "streams.windows",
    "dist.gpa", "dist.localized", "dist.regions", "dist.plans",
    "net.sim", "net.radio", "net.transport", "net.node", "net.routing",
    "net.ght", "net.topology", "net.spatial", "net.network", "net.metrics",
    "net.shard", "net.checkpoint",
    "obs", "bench",
)
OTHER = "other"

#: Spans written to the span file at most; beyond it every k-th root
#: tree is kept and k is recorded in the file's header line.
MAX_SPANS_WRITTEN = 200_000

_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep


def layer_of_file(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or None for foreign code."""
    filename = os.path.abspath(filename)
    if filename.startswith(HERE + os.sep):
        return "bench"
    at = filename.rfind(_REPRO_MARK)
    if at < 0:
        return None
    parts = filename[at + len(_REPRO_MARK):].split(os.sep)
    if parts[0] == "obs":
        return "obs"
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    return ".".join(parts[:-1] + [stem])


#: The generator behind ``nx.bfs_predecessors``: ``net.routing`` builds
#: one next-hop table per exhausted generator (see ``table_builds``).
_BFS_CODE = getattr(nx.bfs_predecessors, "orig_func", nx.bfs_predecessors).__code__


class LayerTracer:
    """Collects layer spans and per-layer counts for one traced call."""

    def __init__(self) -> None:
        self._layer_of: Dict[object, Optional[str]] = {}
        self.calls: Counter = Counter()     # layer -> Python calls into it
        self.entries: Counter = Counter()   # layer -> spans opened
        self.self_s: Counter = Counter()    # layer -> exclusive seconds
        #: Closed spans: (id, layer, start, end, parent id, root id).
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        #: ``nx.bfs_predecessors`` generators run to exhaustion while
        #: ``net.routing`` was the layer on top.
        self.table_builds = 0
        self.total_s = 0.0
        # Open spans, innermost last: [id, layer, start, child seconds, root].
        self._open: List[list] = []
        # One flag per live Python frame: did its call open a span?
        self._frames: List[bool] = []
        self._next_id = 0
        self._next_root = 0

    # -- the hook ------------------------------------------------------------

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            try:
                layer = self._layer_of[code]
            except KeyError:
                layer = self._layer_of[code] = layer_of_file(code.co_filename)
            if layer is None:
                self._frames.append(False)
                return
            self.calls[layer] += 1
            top = self._open[-1]
            if layer == top[1]:
                self._frames.append(False)
                return
            if top[1] == "net.sim" or len(self._open) == 1:
                self._next_root += 1
                root = self._next_root
            else:
                root = top[4]
            self._next_id += 1
            self.entries[layer] += 1
            self._frames.append(True)
            self._open.append([self._next_id, layer, time.perf_counter(), 0.0, root])
        elif event == "return":
            if frame.f_code is _BFS_CODE and arg is None \
                    and self._open[-1][1] == "net.routing":
                self.table_builds += 1
            if self._frames.pop():
                self._close(time.perf_counter())

    def _close(self, now: float) -> None:
        span_id, layer, start, child_s, root = self._open.pop()
        duration = now - start
        self.self_s[layer] += duration - child_s
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            (span_id, layer, start, now, parent[0] if parent else 0, root)
        )

    def run(self, fn: Callable[[], object]) -> object:
        """Call ``fn()`` under the tracer; the root ``bench`` span covers
        exactly the call."""
        self.entries["bench"] += 1
        self._open.append([0, "bench", time.perf_counter(), 0.0, 0])
        sys.setprofile(self._profile)
        try:
            return fn()
        finally:
            sys.setprofile(None)
            # Unwinding fires a return event per frame, so by now every
            # span but the root is closed, exception or not.
            end = time.perf_counter()
            self.total_s = end - self._open[0][2]
            self._close(end)

    # -- reporting -----------------------------------------------------------

    def layer_metrics(self) -> Counter:
        """The non-zero ``<layer>.self_s`` / ``.calls`` / ``.entries``,
        unlisted ``repro`` modules summed into ``other``."""
        out: Counter = Counter()
        for field, counts in (
            ("self_s", self.self_s), ("calls", self.calls),
            ("entries", self.entries),
        ):
            for layer, value in counts.items():
                out[f"{layer if layer in LAYERS else OTHER}.{field}"] += value
        return out

    def write_spans(self, path: str) -> int:
        """Write the spans as JSON lines (a header line first); returns
        the keep-every-k-th-root-tree factor that was applied."""
        keep_every = -(-len(self.spans) // MAX_SPANS_WRITTEN) or 1
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(json.dumps({
                "spans_recorded": len(self.spans),
                "keep_every_kth_root": keep_every,
                "total_s": self.total_s,
                "fields": ["id", "layer", "start_s", "end_s", "parent", "root"],
            }) + "\n")
            t0 = self.spans[-1][2] if self.spans else 0.0  # the root span's start
            for span_id, layer, start, end, parent, root in self.spans:
                if root % keep_every:
                    continue
                f.write(json.dumps(
                    [span_id, layer, round(start - t0, 7), round(end - t0, 7),
                     parent, root]
                ) + "\n")
        return keep_every
