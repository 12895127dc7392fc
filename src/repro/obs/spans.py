"""Lightweight hierarchical spans.

``with span("fixpoint", rule="r1"):`` times a section in wall-clock
time and (when a simulator is passed) simulated time, nests under the
context-local active span, and on exit appends a record to the JSONL
sink and an observation to the ``repro_span_seconds`` histogram — so
traces show *structure* and the registry shows *distributions* from the
same instrumentation point.

Disabled-mode cost is one flag check and the return of a shared no-op
context manager: no allocation, no contextvar traffic.
"""

from __future__ import annotations

import itertools
import time
from contextvars import ContextVar
from typing import Callable, NamedTuple, Optional, Tuple

from . import state
from .export import SINK
from .registry import REGISTRY

#: Context-local stack of active spans (a tuple: cheap to push/pop and
#: safe across asyncio/threads via contextvars).
_stack: ContextVar[Tuple["Span", ...]] = ContextVar("repro_obs_spans",
                                                    default=())
_span_ids = itertools.count(1)

span_seconds = REGISTRY.histogram(
    "repro_span_seconds",
    "Wall-clock duration of instrumented sections, by span name",
    labelnames=("name",),
)


class Span:
    """One timed section.  Use via :func:`span`; attributes are frozen
    at creation except ``attrs``, which :meth:`set` can extend while
    the span is open (e.g. recording an iteration count on exit)."""

    __slots__ = ("name", "span_id", "parent_id", "attrs", "sim",
                 "_t0", "_sim0", "_token", "wall_s", "sim_s")

    def __init__(self, name: str, sim=None, attrs: Optional[dict] = None):
        self.name = name
        self.span_id = next(_span_ids)
        self.attrs = attrs or {}
        self.sim = sim
        self.parent_id = None
        self.wall_s = None
        self.sim_s = None
        self._token = None
        self._t0 = 0.0
        self._sim0 = None

    def set(self, **attrs) -> None:
        """Attach attributes to an open span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        parent = _stack.get()
        if parent:
            self.parent_id = parent[-1].span_id
        self._token = _stack.set(parent + (self,))
        if self.sim is not None:
            self._sim0 = self.sim.now
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_s = time.perf_counter() - self._t0
        if self._token is not None:
            _stack.reset(self._token)
        record = {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "wall_s": self.wall_s,
        }
        if self._sim0 is not None:
            self.sim_s = self.sim.now - self._sim0
            record["sim_s"] = self.sim_s
            record["sim_start"] = self._sim0
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if exc_type is not None:
            record["error"] = exc_type.__name__
        SINK.emit(record)
        span_seconds.labels(name=self.name).observe(self.wall_s)
        return False


class _NullSpan:
    """Shared no-op context manager for disabled mode."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs) -> None:
        pass


_NULL = _NullSpan()


def span(name: str, sim=None, **attrs):
    """Open a telemetry span.  ``sim`` is any object with a ``.now``
    simulated-time property (a :class:`repro.net.sim.Simulator`);
    remaining keywords become span attributes."""
    if not state.enabled:
        return _NULL
    return Span(name, sim=sim, attrs=attrs)


def current_span() -> Optional[Span]:
    """The innermost open span in this context, if any."""
    stack = _stack.get()
    return stack[-1] if stack else None


class CountedHandler(NamedTuple):
    """A node message handler that, with telemetry on, counts each
    message in the counter family named ``family`` and handles it inside
    span ``name`` (one flag check per message when off).  Node handler
    tables ride inside shard checkpoints: it looks its family up per
    message, as a held registry child would be copied by the pickle."""

    handler: Callable
    family: str
    name: str
    labels: dict

    def __call__(self, node, msg) -> None:
        if not state.enabled:
            self.handler(node, msg)
            return
        REGISTRY.get(self.family).labels(**self.labels).inc()
        with span(self.name, sim=node.network.sim, node=node.id):
            self.handler(node, msg)
