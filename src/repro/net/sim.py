"""Discrete-event simulation engine.

The TOSSIM substitute's core: a priority queue of timestamped events.
Everything above it (radio, routing, the deductive engine's phase
delays) schedules callbacks here.  Determinism: ties are broken by a
monotone sequence number, and all randomness flows from a single seeded
``random.Random`` owned by the simulator.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, List, Optional, Tuple

from ..obs import instrument as _inst
from ..obs import state as _obs


class Simulator:
    """A minimal deterministic discrete-event scheduler.

    The queue is a heap of ``(time, seq, callback)``; ``seq`` counts
    pushes, so events due at one instant run in the order they were
    scheduled.  :meth:`schedule_at` is the checked way in.  The radio
    pushes each frame's arrival itself (``Radio._send_frame``; an
    arrival is never in the past), so a frame costs no call here, and
    ``now`` is a plain attribute for the same reason.  Events leave the
    queue only in :meth:`run`, which therefore keeps the high-water
    mark.
    """

    def __init__(self, seed: int = 0):
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        #: Current global simulation time.
        self.now = 0.0
        self.rng = random.Random(seed)
        self.events_processed = 0
        self._hwm = 0

    @property
    def queue_hwm(self) -> int:
        """Deepest the event queue has ever been (telemetry + a cheap
        proxy for peak simulation memory).  The queue only shrinks when
        :meth:`run` pops, so its depth before each pop and its depth now
        cover every peak."""
        depth = len(self._queue)
        return depth if depth > self._hwm else self._hwm

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` time units (>= 0)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.schedule_at(self.now + delay, callback)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute time ``when`` (>= now)."""
        if when < self.now:
            raise ValueError(f"cannot schedule in the past ({when} < {self.now})")
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, callback))

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        inclusive: bool = True,
    ) -> int:
        """Process events in time order.

        Stops when the queue is empty, when the next event lies past
        ``until`` (the clock then advances to ``until``), or after
        ``max_events`` events (runaway guard).  Returns the number of
        events processed in this call.

        ``inclusive=False`` makes ``until`` a strict upper bound: only
        events with ``when < until`` run, and events at exactly
        ``until`` stay queued.  Conservative time-window
        synchronization (the sharded engine's lockstep epochs) needs
        half-open windows ``[T, T_end)`` so the same event is never
        processed by two consecutive windows.
        """
        processed = 0
        queue = self._queue
        pop = heapq.heappop
        while queue and (max_events is None or processed < max_events):
            if len(queue) > self._hwm:
                self._hwm = len(queue)
            event = pop(queue)
            when = event[0]
            if until is not None and (when > until if inclusive else when >= until):
                # Not due in this call: back it goes, under the same
                # (time, sequence) key, so the order is untouched.
                heapq.heappush(queue, event)
                break
            self.now = when
            event[2]()
            processed += 1
        if until is not None and self.now < until:
            self.now = until
        self.events_processed += processed
        if _obs.enabled:
            if processed:
                _inst.sim_events.inc(processed)
                _inst.sim_queue_hwm.set_max(self.queue_hwm)
            _inst.catch_up()  # the folded families, as control returns
        return processed

    def run_all(self, max_events: int = 10_000_000) -> int:
        """Drain the event queue completely (with a runaway guard)."""
        return self.run(max_events=max_events)

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def next_time(self) -> Optional[float]:
        """Timestamp of the earliest queued event (None when idle) —
        what a shard reports so the coordinator can pick the next
        conservative window bound."""
        return self._queue[0][0] if self._queue else None


class LocalClock:
    """A node's local clock: global time plus a fixed skew.

    Section IV assumes only that the *difference* between any two local
    clocks is bounded by tau_c; a fixed per-node offset drawn from
    [-tau_c/2, +tau_c/2] realizes exactly that bound.
    """

    def __init__(self, sim: Simulator, skew: float = 0.0):
        self._sim = sim
        self.skew = skew

    def now(self) -> float:
        """Local time at this node."""
        return self._sim.now + self.skew

    def __repr__(self) -> str:
        return f"LocalClock(skew={self.skew:+.4f})"
