"""Adaptive re-placement of hot tenant storage regions.

Coarse GHT partitions co-locate a tenant's whole result table for one
predicate at a single home node (cheap to gather, cheap to migrate as
a unit) — which is exactly how a heavy tenant turns part of the
network into a hotspot: every result message converges on the home,
and every epoch's gather re-transmits the table from the home along
the route to the sink, so the home *and the funnel nodes on that
route* burn transmissions (and battery) far above the network mean.

The placer watches the per-epoch transmission deltas and, when the
network-wide load imbalance crosses its high watermark, migrates the
region responsible for the most traffic through the hottest node to
the coolest node:

* **hysteresis-bounded** — migration engages above ``_HI`` and stays
  engaged until the imbalance falls below ``_LO``; a freshly moved
  region sits out ``_COOLDOWN`` epochs before it may move again, so one
  region cannot thrash back and forth between two nodes;
* **cost-based** — a move pays one routed message per resident fact
  (times the hop distance between old and new home); it only happens
  when the load differential between hot and cool node, amortized over
  the cooldown horizon, exceeds ``_MIN_GAIN`` times that cost;
* **deterministic** — candidates are examined in sorted order and ties
  break on smallest node id, so a serving run is a pure function of
  its seed.

Under sustained skew a single migration cannot push the *per-epoch*
imbalance below the watermark — the hot tenant's traffic is what it
is, wherever its region lives.  What migration does achieve is load
*rotation*: the hot route moves every cooldown window, so no single
node accumulates the whole burden.  Battery depletion is cumulative
(Section III-A: nodes close to a server fail first), so rotating the
hotspot is precisely the lifetime-extending behavior the load-
imbalance metric rewards — the cumulative max/mean load under
adaptive placement stays well below static placement's.

With placement disabled the server never constructs a placer and every
key keeps its static hash home.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import instrument as _inst
from ..obs import state as _obs
from .session import TenantSession

#: The node results are gathered at (the server's base station).
SINK = 0
#: Hysteresis watermarks on the per-epoch load imbalance, the epochs a
#: moved region sits out, and the gain a move must bring per unit of
#: its cost.  No caller ever set other values.
_HI = 1.8
_LO = 1.3
_COOLDOWN = 2
_MIN_GAIN = 0.25


class PlacementMove:
    """One executed migration, for reports and tests."""

    __slots__ = ("epoch", "tenant", "key", "old_home", "new_home", "facts")

    def __init__(self, epoch: int, tenant: str, key: str,
                 old_home: int, new_home: int, facts: int):
        self.epoch = epoch
        self.tenant = tenant
        self.key = key
        self.old_home = old_home
        self.new_home = new_home
        self.facts = facts

    def __repr__(self) -> str:
        return (
            f"PlacementMove(epoch={self.epoch}, tenant={self.tenant!r}, "
            f"key={self.key!r}, {self.old_home}->{self.new_home}, "
            f"facts={self.facts})"
        )


class AdaptivePlacer:
    """Epoch-driven migration of hot storage regions to cooler nodes."""

    def __init__(self, network):
        self.network = network
        self._last_tx: Dict[int, int] = {}
        self._cooling: Dict[str, int] = {}
        self._engaged = False
        #: Per-epoch network-wide load imbalance (max/mean of this
        #: epoch's transmission deltas over the whole network).
        self.imbalance_history: List[float] = []
        self.moves: List[PlacementMove] = []

    # -- load observation ------------------------------------------------

    def epoch_loads(self) -> Dict[int, int]:
        """Per-node transmissions since the previous call (the epoch's
        load deltas), advancing the internal snapshot."""
        tx = self.network.metrics.tx_count
        deltas = {}
        for nid in self.network.nodes:
            current = tx.get(nid, 0)
            deltas[nid] = current - self._last_tx.get(nid, 0)
            self._last_tx[nid] = current
        return deltas

    @staticmethod
    def imbalance(deltas: Dict[int, int]) -> float:
        """max/mean over the whole network (idle network: 1.0)."""
        loads = [d for d in deltas.values() if d > 0]
        if not loads:
            return 1.0
        mean = sum(loads) / len(deltas)
        return max(loads) / mean

    # -- the placement step ----------------------------------------------

    def step(self, epoch: int, sessions: Sequence[TenantSession]) -> Optional[PlacementMove]:
        """Run one epoch's placement decision on a quiesced network.

        Reads the epoch's load deltas, updates the hysteresis state,
        and executes at most one cost-justified migration (pin the key
        via ``ght.place``, ship the resident derived facts via
        ``engine.migrate_derived``, drain the migration traffic).
        Returns the move, or None when the placer held still.
        """
        deltas = self.epoch_loads()
        imbalance = self.imbalance(deltas)
        self.imbalance_history.append(imbalance)
        if _obs.enabled:
            _inst.serve_load_imbalance.set(imbalance)
        for key in [k for k, left in self._cooling.items() if left <= 1]:
            del self._cooling[key]
        for key in self._cooling:
            self._cooling[key] -= 1
        if imbalance >= _HI:
            self._engaged = True
        elif imbalance <= _LO:
            self._engaged = False
        if not self._engaged:
            return None

        hot = max(sorted(deltas), key=lambda n: (deltas[n], -n))
        cool = min(sorted(deltas), key=lambda n: (deltas[n], n))
        if hot == cool or deltas[hot] <= deltas[cool]:
            return None
        candidate = self._hottest_region(hot, sessions)
        if candidate is None:
            return None
        session, key, home, facts = candidate
        gain = (deltas[hot] - deltas[cool]) * _COOLDOWN
        cost = facts * max(1, self.network.router.hop_distance(home, cool))
        if gain < _MIN_GAIN * cost:
            return None

        session.engine.ght.place(key, cool)
        moved = session.engine.migrate_derived(home, cool, {key})
        self.network.run_all()
        self._cooling[key] = _COOLDOWN
        if _obs.enabled:
            _inst.placement_migrations.inc()
        move = PlacementMove(epoch, session.tenant, key, home, cool, moved)
        self.moves.append(move)
        return move

    def _hottest_region(
        self, hot: int, sessions: Sequence[TenantSession]
    ) -> Optional[Tuple[TenantSession, str, int, int]]:
        """The migratable region responsible for the most traffic
        through the hot node: (session, region key, current home,
        resident fact count).

        A region is implicated when the hot node is its home (result
        convergence and gather sends originate there) or lies on the
        route its gather traffic takes to the sink (every gathered fact
        is re-transmitted by each funnel node on that route).  Regions
        on cooldown are skipped; ties break on tenant admission order,
        then lexical key order.
        """
        router = self.network.router
        best: Optional[Tuple[TenantSession, str, int, int]] = None
        for session in sorted(sessions, key=lambda s: s.index):
            if not session.active:
                continue
            engine = session.engine
            for pred in session.outputs:
                key = engine.ght.region_key(pred)
                if key in self._cooling:
                    continue
                home = engine.ght.node_for_key(key)
                if hot != home and hot not in router.path(home, SINK):
                    continue
                runtime = engine.runtimes.get(home)
                if runtime is None:
                    continue
                facts = sum(
                    1 for p, a, _fact in runtime.derived.visible()
                    if engine.ght.key_for_fact(p, a) == key
                )
                if facts == 0:
                    continue
                if best is None or facts > best[3]:
                    best = (session, key, home, facts)
        return best
