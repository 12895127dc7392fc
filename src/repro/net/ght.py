"""Geographic hashing of derived tuples.

Derived tuples must be stored so that *identical* tuples land at the
same (or nearby) node — that is what turns a derived table into a set
and a derived stream (Section III-B: duplicates are detected at the
hashed location and are not re-generated).  Classic geographic hash
tables (GHT) hash a key to a position and store at the node nearest
that position; we do exactly that with a process-independent hash
(Python's builtin ``hash`` is salted, so md5 it is).  A fact's key is
spelled in one place, :meth:`GeographicHash.key_for_fact`, under which
equal facts spell equal keys: ``1``, ``1.0`` and ``True`` are one term,
so they are spelled ``1`` wherever they occur.

Failover (E20): with ``replicas=k > 1`` a key's *replica set* is its
k-nearest nodes (GHT's "perimeter refresh" stores at the home node's
perimeter; k-nearest is the point-topology analogue).  The *primary*
is the first live member in (distance, id) order — when the home node
dies, lookups fail over to the next-closest live replica and the key
stays readable, which is what lets PA ride out node churn.

Serving extensions (E21):

* **placement overrides** — :meth:`GeographicHash.place` pins a key to
  an explicit home node, overriding the hash.  The adaptive placement
  loop of :mod:`repro.serve` uses this to migrate hot storage regions
  to cooler nodes; with no overrides installed every lookup takes the
  original hash path unchanged.
* **keyspace partitions** — :meth:`GeographicHash.partition` returns a
  tenant-scoped view whose keys are prefixed with the tenant id, so
  concurrent tenants never collide in the shared keyspace.  A *coarse*
  partition hashes per predicate instead of per fact, co-locating a
  tenant's whole result table in one storage region (cheap to gather,
  cheap to migrate as a unit).
"""

from __future__ import annotations

import hashlib
import operator
from typing import Dict, Optional, Tuple, TYPE_CHECKING

from ..core.errors import NetworkError
from ..core.terms import Constant, FunctionTerm, Term
from .topology import Position, Topology

if TYPE_CHECKING:  # pragma: no cover
    from .radio import Radio


def stable_hash(data: str) -> int:
    """Deterministic 64-bit hash of a string (same across processes)."""
    digest = hashlib.md5(data.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _int_spelled(term: Term) -> Term:
    """``term`` with each bool or integral float constant spelled as its
    int (inside function terms too); ``term`` itself when nothing
    changes, so its repr is the one it always had.  A constant tuple's
    items keep their spelling: respelling them would move the homes of
    today's float coordinates, ``(3.0, 4.5)``.  (Equal tuples still
    share one key per process: the first spelling the memo of
    :meth:`GeographicHash.key_for_fact` met.)"""
    if term.__class__ is Constant:
        value = term.value
        if value.__class__ is bool or value.__class__ is float and value.is_integer():
            return Constant(int(value))
        return term
    if term.__class__ is FunctionTerm:
        args = tuple(map(_int_spelled, term.args))
        if all(map(operator.is_, args, term.args)):
            return term
        return FunctionTerm(term.functor, args)
    return term


class GeographicHash:
    """Hashes fact keys to storage nodes via positions."""

    def __init__(self, topology: Topology, replicas: int = 1):
        if replicas < 1:
            raise NetworkError(f"replicas {replicas} must be >= 1")
        if replicas > len(topology):
            raise NetworkError(
                f"replicas {replicas} exceeds network size {len(topology)}"
            )
        self.topology = topology
        self.replicas = replicas
        self._bbox = topology.bounding_box()
        # key -> home node.  GPA re-hashes the same fact keys on every
        # store/join/result pass; topologies are immutable, so the
        # mapping never changes and the md5 + nearest-node work is paid
        # once per distinct key.
        self._home_cache: Dict[str, int] = {}
        # key -> full replica set (k-nearest, by (distance, id)).
        self._replica_cache: Dict[str, Tuple[int, ...]] = {}
        # key -> pinned home node (adaptive placement).  Empty in every
        # non-serving run, so the hash path pays one truthiness check.
        self._overrides: Dict[str, int] = {}
        # (pred, args) -> key.  Equal facts are one dict key, so a
        # repeat lookup of any spelling of a fact is one hit.
        self._fact_keys: Dict[Tuple[str, Tuple[Term, ...]], str] = {}

    def position_for(self, key: str) -> Position:
        """Map a key to a position inside the deployment bounding box."""
        x0, y0, x1, y1 = self._bbox
        h = stable_hash(key)
        fx = ((h >> 32) & 0xFFFFFFFF) / 0xFFFFFFFF
        fy = (h & 0xFFFFFFFF) / 0xFFFFFFFF
        return (x0 + fx * (x1 - x0), y0 + fy * (y1 - y0))

    def node_for_key(self, key: str) -> int:
        """The home node for a key: nearest node to the hashed position
        (memoized — the spatial index makes a miss O(1) expected, the
        cache makes a repeat free).  A placement override pins the key
        to an explicit node instead."""
        if self._overrides:
            pinned = self._overrides.get(key)
            if pinned is not None:
                return pinned
        home = self._home_cache.get(key)
        if home is None:
            home = self.topology.nearest_node(self.position_for(key))
            self._home_cache[key] = home
        return home

    def nodes_for_key(self, key: str) -> Tuple[int, ...]:
        """The key's replica set: its ``replicas``-nearest nodes in
        (distance, id) order, memoized.  Element 0 is the home node —
        ``nodes_for_key(k)[0] == node_for_key(k)`` always.  For an
        overridden key the set is the pinned node plus the nodes
        nearest to *it* (replication stays local to the new home)."""
        if self._overrides and key in self._overrides:
            pinned = self._overrides[key]
            rest = [
                n for n in self.topology.nearest_nodes(
                    self.topology.position(pinned), self.replicas + 1
                )
                if n != pinned
            ]
            return (pinned, *rest[: self.replicas - 1])
        replica_set = self._replica_cache.get(key)
        if replica_set is None:
            replica_set = tuple(
                self.topology.nearest_nodes(self.position_for(key), self.replicas)
            )
            self._replica_cache[key] = replica_set
        return replica_set

    # -- adaptive placement (E21) ---------------------------------------

    def place(self, key: str, node_id: int) -> None:
        """Pin ``key``'s home to ``node_id``, overriding the hash.
        Moving the data stored under the key is the caller's job (see
        :meth:`repro.dist.gpa.GPAEngine.migrate_derived`)."""
        if node_id not in self.topology.positions:
            raise NetworkError(f"cannot place {key!r} at unknown node {node_id}")
        self._overrides[key] = node_id

    def unplace(self, key: str) -> None:
        """Drop a placement override (the key re-homes by hash)."""
        self._overrides.pop(key, None)

    def placement(self) -> Dict[str, int]:
        """A copy of the current key -> pinned-node override map."""
        return dict(self._overrides)

    def partition(self, tenant: str, coarse: bool = False) -> "GHTPartition":
        """A tenant-scoped view of this keyspace (keys prefixed with
        ``tenant``).  ``coarse=True`` hashes per predicate instead of
        per fact: the tenant's whole result table for one predicate
        lands in one storage region."""
        return GHTPartition(self, tenant, coarse=coarse)

    def primary_for_key(self, key: str, radio: "Radio") -> Optional[int]:
        """The first *live* member of the key's replica set (the node
        lookups and stores should address right now), or None when the
        whole set is dead."""
        for node in self.nodes_for_key(key):
            if radio.is_alive(node):
                return node
        return None

    def node_for_fact(self, predicate: str, args: Tuple[Term, ...]) -> int:
        """Home node for a derived fact (predicate + ground arguments)."""
        return self.node_for_key(self.key_for_fact(predicate, args))

    def key_for_fact(self, predicate: str, args: Tuple[Term, ...]) -> str:
        """The GHT key a derived fact hashes under: ``pred/args`` with
        every bool and integral float spelled as its int, so facts equal
        as terms share a home (memoized)."""
        fact = (predicate, args)
        key = self._fact_keys.get(fact)
        if key is None:
            key = f"{predicate}/{tuple(map(_int_spelled, args))!r}"
            self._fact_keys[fact] = key
        return key

    def nodes_for_fact(self, predicate: str, args: Tuple[Term, ...]) -> Tuple[int, ...]:
        """Replica set for a derived fact."""
        return self.nodes_for_key(self.key_for_fact(predicate, args))


class GHTPartition:
    """A tenant's slice of a shared :class:`GeographicHash`.

    Fact keys are prefixed with the tenant id, so two tenants deriving
    the same fact keep distinct homes and derivation state.  The
    partition exposes the same fact-level API as the base hash (and
    delegates key-level lookups to it), which lets
    :class:`~repro.dist.gpa.GPAEngine` use either interchangeably.

    ``coarse=True`` hashes ``tenant:predicate`` instead of
    ``tenant:predicate/args``: all facts of one result predicate share
    one storage region — the *tenant storage region* the adaptive
    placement loop migrates as a unit.
    """

    __slots__ = ("base", "tenant", "coarse")

    def __init__(self, base: GeographicHash, tenant: str, coarse: bool = False):
        self.base = base
        self.tenant = tenant
        self.coarse = coarse

    @property
    def replicas(self) -> int:
        return self.base.replicas

    @property
    def topology(self) -> Topology:
        return self.base.topology

    def key_for_fact(self, predicate: str, args: Tuple[Term, ...]) -> str:
        if self.coarse:
            return f"{self.tenant}:{predicate}"
        return f"{self.tenant}:{self.base.key_for_fact(predicate, args)}"

    def region_key(self, predicate: str) -> str:
        """The coarse (per-predicate) region key, regardless of the
        partition's own granularity — what the placer pins."""
        return f"{self.tenant}:{predicate}"

    def node_for_key(self, key: str) -> int:
        return self.base.node_for_key(key)

    def nodes_for_key(self, key: str) -> Tuple[int, ...]:
        return self.base.nodes_for_key(key)

    def primary_for_key(self, key: str, radio: "Radio") -> Optional[int]:
        return self.base.primary_for_key(key, radio)

    def node_for_fact(self, predicate: str, args: Tuple[Term, ...]) -> int:
        return self.base.node_for_key(self.key_for_fact(predicate, args))

    def nodes_for_fact(self, predicate: str, args: Tuple[Term, ...]) -> Tuple[int, ...]:
        return self.base.nodes_for_key(self.key_for_fact(predicate, args))

    def place(self, key: str, node_id: int) -> None:
        self.base.place(key, node_id)

    def unplace(self, key: str) -> None:
        self.base.unplace(key)
