"""Deterministic fault injection: node churn, link faults, partitions.

The paper's evaluation claims the deductive techniques are
fault-tolerant — "immune to certain topology changes" — but the only
fault the substrate exercised was independent message loss (E7/E18).
This module is the chaos layer that completes the robustness story:

* :class:`FaultSchedule` — a declarative, seedable timeline of fault
  events (node crash/recover, transient link up/down, region
  partitions, energy-depletion deaths);
* :class:`FaultInjector` — drives the schedule through the simulation
  clock, applying each event against the radio/router at its scheduled
  time and notifying subscribers (the GPA engine hooks its recovery
  mechanisms — anti-entropy re-sync, soft-state refresh — here).

Determinism: a schedule is fully constructed *before* the simulation
runs, from its own ``random.Random`` seeded by the trial seed
(:meth:`FaultSchedule.random_churn`); applying events consumes no
simulator randomness, so a run with an **empty** schedule is
bit-identical to a run with no injector at all — E1/E7/E18 outputs are
unchanged (``tests/integration/test_fault_rng_identity.py`` pins this).

Recovery semantics (what riding a fault out means here):

* a crashed node loses its volatile radio state — in-flight reliable
  transfers it originated and its receiver-side dedup memory are gone
  when it revives (:meth:`Radio.revive` clears the queues);
* with ``repair=True`` (the default) the injector keeps the routing
  layer's liveness view current: crashes exclude the node from
  next-hop tables, recoveries restore it, link faults exclude the
  edge — the "self-repairing routing" half of the subsystem (the other
  half, delivery-failure-triggered repair, lives in
  :meth:`repro.net.node.Node._forward`);
* GHT failover and storage re-advertisement are the engine's job; it
  subscribes via :meth:`GPAEngine.attach_faults`.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from ..core.errors import NetworkError

if TYPE_CHECKING:  # pragma: no cover
    from .network import SensorNetwork

#: Event kinds a schedule may contain.
FAULT_KINDS = (
    "crash", "recover", "deplete", "link_down", "link_up", "partition", "heal",
    "worker_kill",
)

#: Kinds applied against the simulated network (everything except
#: coordinator-level process faults, which the sharded engine's
#: supervisor consumes before the simulation starts).
SIMULATED_KINDS = tuple(k for k in FAULT_KINDS if k != "worker_kill")


class FaultEvent:
    """One scheduled fault: a kind, a time, and its target.

    ``node`` targets node events (crash/recover/deplete); ``link`` is an
    ``(a, b)`` pair for link events; ``nodes`` is the cut-off node set
    for partitions.  Heal events carry no target — they restore every
    link the most recent partition severed.  ``shard``/``window``
    target ``worker_kill`` events: not a simulated fault at all, but a
    real process death the sharded engine's supervisor injects into
    shard ``shard`` during conservative window ``window`` (the event's
    ``time`` mirrors the window index so timelines stay sortable).
    """

    __slots__ = ("time", "kind", "node", "link", "nodes", "shard", "window")

    def __init__(
        self,
        time: float,
        kind: str,
        node: Optional[int] = None,
        link: Optional[Tuple[int, int]] = None,
        nodes: Optional[Tuple[int, ...]] = None,
        shard: Optional[int] = None,
        window: Optional[int] = None,
    ):
        if kind not in FAULT_KINDS:
            raise NetworkError(f"unknown fault kind {kind!r} (have {FAULT_KINDS})")
        if time < 0:
            raise NetworkError(f"fault time {time} must be >= 0")
        self.time = time
        self.kind = kind
        self.node = node
        self.link = link
        self.nodes = nodes
        self.shard = shard
        self.window = window

    def __repr__(self) -> str:
        if self.kind == "worker_kill":
            return (
                f"FaultEvent(worker_kill, shard={self.shard}, "
                f"window={self.window})"
            )
        target = self.node if self.node is not None else (self.link or self.nodes or "")
        return f"FaultEvent({self.time:.3f}, {self.kind}, {target})"


class FaultSchedule:
    """A declarative timeline of fault events.

    Builder methods are chainable and may be called in any order —
    :meth:`timeline` yields events sorted by (time, insertion order),
    which is also the order the injector applies them in.  Schedules
    are plain data (picklable), so they thread through
    ``harness.run_trials(parallel=...)`` worker processes unchanged.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()):
        self.events: List[FaultEvent] = list(events)

    def __len__(self) -> int:
        return len(self.events)

    def _add(self, event: FaultEvent) -> "FaultSchedule":
        self.events.append(event)
        return self

    # -- builders ---------------------------------------------------------

    def crash(self, time: float, node: int) -> "FaultSchedule":
        """Fail ``node`` at ``time`` (hardware crash / tamper)."""
        return self._add(FaultEvent(time, "crash", node=node))

    def recover(self, time: float, node: int) -> "FaultSchedule":
        """Restore ``node`` at ``time`` with cleared volatile state."""
        return self._add(FaultEvent(time, "recover", node=node))

    def crash_recover(
        self, time: float, node: int, downtime: float
    ) -> "FaultSchedule":
        """Crash ``node`` at ``time`` and revive it ``downtime`` later."""
        self.crash(time, node)
        return self.recover(time + downtime, node)

    def deplete(self, time: float, node: int) -> "FaultSchedule":
        """Kill ``node`` by energy depletion (a battery death: same
        silence as a crash, distinct cause for the telemetry)."""
        return self._add(FaultEvent(time, "deplete", node=node))

    def link_down(self, time: float, a: int, b: int) -> "FaultSchedule":
        """Sever the (bidirectional) link between ``a`` and ``b``."""
        return self._add(FaultEvent(time, "link_down", link=(a, b)))

    def link_up(self, time: float, a: int, b: int) -> "FaultSchedule":
        """Restore the link between ``a`` and ``b``."""
        return self._add(FaultEvent(time, "link_up", link=(a, b)))

    def partition(self, time: float, nodes: Sequence[int]) -> "FaultSchedule":
        """Cut every link between ``nodes`` and the rest of the network
        (the nodes stay alive — they just can't be heard across the
        cut)."""
        return self._add(FaultEvent(time, "partition", nodes=tuple(nodes)))

    def heal(self, time: float) -> "FaultSchedule":
        """Restore every link severed by partitions so far."""
        return self._add(FaultEvent(time, "heal"))

    def worker_kill(self, shard: int, at_window: int) -> "FaultSchedule":
        """Kill shard worker ``shard`` mid-way through conservative
        window ``at_window`` of a sharded run — a *process* fault
        (``SIGKILL`` in process mode, an injected death in inline
        mode), not a simulated node fault: the nodes the shard hosts
        lose nothing in the simulated world, and the supervisor must
        restore them bit-for-bit from the shard's last checkpoint.
        Consumed by ``repro.net.shard.run(..., faults=...)``; ignored
        (never applied) by :class:`FaultInjector`."""
        if shard < 0:
            raise NetworkError(f"worker_kill shard {shard} must be >= 0")
        if at_window < 0:
            raise NetworkError(
                f"worker_kill window {at_window} must be >= 0"
            )
        return self._add(
            FaultEvent(
                float(at_window), "worker_kill", shard=shard, window=at_window
            )
        )

    # -- generators -------------------------------------------------------

    @classmethod
    def random_churn(
        cls,
        node_ids: Sequence[int],
        rate: float,
        horizon: float,
        seed,
        slots: int = 4,
    ) -> "FaultSchedule":
        """A steady-state churn process: at (almost) any moment during
        ``[0, horizon]``, ``rate`` of ``node_ids`` are down (leave a
        node out of ``node_ids`` to keep it up, e.g. a sink the
        experiment must keep observable).

        The horizon is divided into ``slots`` equal windows; in each
        window a fresh seeded sample of ``round(rate * n)`` victims
        crashes at the window start and recovers at its end, so
        membership rotates while the down-fraction stays ~``rate``.
        Everything is drawn from ``random.Random(f"churn:{seed}")`` at
        construction time — the schedule is a pure function of its
        arguments and never touches the simulator RNG.
        """
        if not 0.0 <= rate < 1.0:
            raise NetworkError(f"churn rate {rate} out of range")
        if slots < 1:
            raise NetworkError(f"churn needs at least one slot, got {slots}")
        schedule = cls()
        eligible = list(node_ids)
        victims_per_slot = round(rate * len(eligible))
        if not victims_per_slot:
            return schedule
        rng = random.Random(f"churn:{seed}")
        slot_len = horizon / slots
        for s in range(slots):
            t0 = s * slot_len
            for victim in rng.sample(eligible, victims_per_slot):
                schedule.crash_recover(t0, victim, slot_len)
        return schedule

    # -- reading ----------------------------------------------------------

    def down_at(self, node: int, time: float) -> bool:
        """Whether ``node`` is scheduled to be dead at ``time`` — i.e.
        its last crash/deplete/recover event with ``event.time <= time``
        (in application order) left it down.  Lets workload generators
        decide *before the simulation runs* which publishes will land
        on a dead sensor (and exclude them from the oracle), keeping
        the expected-result computation a pure function of the seed."""
        down = False
        for event in self.timeline():
            if event.time > time:
                break
            if event.node != node:
                continue
            if event.kind in ("crash", "deplete"):
                down = True
            elif event.kind == "recover":
                down = False
        return down

    def timeline(self) -> List[FaultEvent]:
        """Events sorted by (time, insertion order) — the application
        order."""
        indexed = sorted(
            enumerate(self.events), key=lambda pair: (pair[1].time, pair[0])
        )
        return [event for _, event in indexed]

    def kill_plan(self) -> dict:
        """The schedule's worker_kill events as ``{shard: sorted
        window indices}`` — the form the sharded engine's supervisor
        consumes."""
        plan: dict = {}
        for event in self.events:
            if event.kind == "worker_kill":
                plan.setdefault(event.shard, set()).add(event.window)
        return {shard: sorted(windows) for shard, windows in plan.items()}

    def describe(self) -> dict:
        """A summary of the schedule for tables and the ``:faults``
        shell command: total event count, overall first/last
        timestamps, and per-kind ``{count, first, last}`` (kinds in
        :data:`FAULT_KINDS` order).  Pure data — computing it never
        applies anything."""
        kinds: dict = {}
        for event in self.timeline():
            entry = kinds.setdefault(
                event.kind, {"count": 0, "first": event.time, "last": event.time}
            )
            entry["count"] += 1
            entry["first"] = min(entry["first"], event.time)
            entry["last"] = max(entry["last"], event.time)
        times = [event.time for event in self.events]
        return {
            "events": len(self.events),
            "first": min(times) if times else None,
            "last": max(times) if times else None,
            "kinds": {k: kinds[k] for k in FAULT_KINDS if k in kinds},
        }

    def __repr__(self) -> str:
        return f"FaultSchedule({len(self.events)} events)"


#: A fault observer: called with each FaultEvent just after it applied.
FaultObserver = Callable[[FaultEvent], None]


class FaultInjector:
    """Applies a :class:`FaultSchedule` against a network's sim clock.

    ``repair=True`` (default) additionally keeps the routing layer's
    liveness view current (crash -> exclude from next-hop tables,
    recover -> restore, link fault -> exclude the edge) and flips the
    network's ``self_repair`` flag on, enabling the delivery-failure
    detector in :meth:`Node._forward`.  ``repair=False`` injects raw
    faults with no recovery at all — the "what the seed did" baseline.

    Subscribers are notified after each event applies (at its sim
    time); the GPA engine uses this for anti-entropy re-sync on
    recoveries and soft-state refresh on heals.
    """

    def __init__(
        self,
        network: "SensorNetwork",
        schedule: FaultSchedule,
        repair: bool = True,
    ):
        self.network = network
        self.schedule = schedule
        self.repair = repair
        self.applied: List[FaultEvent] = []
        self._subscribers: List[FaultObserver] = []
        self._partition_links: List[Tuple[int, int]] = []
        self._armed = False

    def subscribe(self, observer: FaultObserver) -> FaultObserver:
        self._subscribers.append(observer)
        return observer

    def arm(self) -> "FaultInjector":
        """Schedule every event on the simulator (idempotent)."""
        if self._armed:
            return self
        self._armed = True
        if self.repair:
            self.network.self_repair = True
        for event in self.schedule.timeline():
            if event.kind == "worker_kill":
                # A coordinator-level process fault, not a simulated
                # one: the sharded engine's supervisor consumes these
                # before the run; a single-process injector has no
                # worker to kill and skips them.
                continue
            self.network.sim.schedule_at(
                event.time, lambda ev=event: self._apply(ev)
            )
        return self

    # -- application ------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        handler = getattr(self, f"_apply_{event.kind}")
        handler(event)
        self.applied.append(event)
        for observer in self._subscribers:
            observer(event)

    def _apply_crash(self, event: FaultEvent) -> None:
        self.network.radio.kill(event.node, cause="crash")
        if self.repair:
            self.network.router.exclude(event.node)

    def _apply_deplete(self, event: FaultEvent) -> None:
        self.network.radio.kill(event.node, cause="energy")
        if self.repair:
            self.network.router.exclude(event.node)

    def _apply_recover(self, event: FaultEvent) -> None:
        self.network.radio.revive(event.node)
        if self.repair:
            self.network.router.restore(event.node)

    def _apply_link_down(self, event: FaultEvent) -> None:
        a, b = event.link
        self.network.radio.link_down(a, b)
        if self.repair:
            self.network.router.exclude_edge(a, b)

    def _apply_link_up(self, event: FaultEvent) -> None:
        a, b = event.link
        self.network.radio.link_up(a, b)
        if self.repair:
            self.network.router.restore_edge(a, b)

    def _apply_partition(self, event: FaultEvent) -> None:
        cut = set(event.nodes)
        done: Set[int] = set()  # each link once, from the node first in adjacency order
        for a, nbrs in self.network.topology.adjacency.items():
            for b in nbrs:
                if b not in done and (a in cut) != (b in cut):
                    self._partition_links.append((a, b))
                    self._apply_link_down(FaultEvent(event.time, "link_down", link=(a, b)))
            done.add(a)

    def _apply_heal(self, event: FaultEvent) -> None:
        links, self._partition_links = self._partition_links, []
        for a, b in links:
            self._apply_link_up(FaultEvent(event.time, "link_up", link=(a, b)))

    # -- reporting --------------------------------------------------------

    def summary(self) -> dict:
        """Counts of applied events by kind (for bench tables)."""
        out: dict = {}
        for event in self.applied:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out
