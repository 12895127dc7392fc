"""TAG-style in-network aggregation.

Section IV-C delegates built-in aggregates to specialized distributed
techniques such as TAG [32]: build a spanning tree rooted at the sink,
disseminate the query down the tree, then combine partial states up the
tree level by level — each node transmits exactly one partial state per
epoch, instead of shipping every raw reading to the sink.

Partial states: count -> n; sum -> s; avg -> (s, n); min/max -> m.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.errors import NetworkError
from .messages import Message
from .network import SensorNetwork
from .topology import bfs_levels

SUPPORTED = ("count", "sum", "min", "max", "avg")


class _PartialMsg(Message):
    def __init__(self, state: Tuple[float, int], symbols: int = 2):
        super().__init__("tag_partial", payload_symbols=symbols, category="aggregation")
        self.state = state


class _QueryMsg(Message):
    def __init__(self, epoch_deadline: float):
        super().__init__("tag_query", payload_symbols=2, category="aggregation")
        self.epoch_deadline = epoch_deadline


def _merge(func: str, a: Tuple[float, int], b: Tuple[float, int]) -> Tuple[float, int]:
    if func in ("count", "sum", "avg"):
        return (a[0] + b[0], a[1] + b[1])
    if func == "min":
        return (min(a[0], b[0]), a[1] + b[1])
    return (max(a[0], b[0]), a[1] + b[1])


def _initial(func: str, value: Optional[float]) -> Optional[Tuple[float, int]]:
    if value is None:
        return None
    if func == "count":
        return (1.0, 1)
    return (float(value), 1)


def _initial_multi(func: str, values) -> Optional[Tuple[float, int]]:
    """Fold a node's list of local readings into one partial state."""
    state: Optional[Tuple[float, int]] = None
    for value in values:
        part = _initial(func, value)
        state = part if state is None else _merge(func, state, part)
    return state


def _finalize(func: str, state: Tuple[float, int]) -> float:
    if func == "count":
        return state[0]
    if func == "avg":
        return state[0] / state[1]
    return state[0]


class TagAggregator:
    """One-shot TAG aggregation over a BFS tree rooted at ``root``.

    Usage::

        agg = TagAggregator(net, root=0)
        agg.start("avg", values={nid: reading for ...})
        net.run_all()
        print(agg.result)
    """

    def __init__(self, network: SensorNetwork, root: int):
        self.network = network
        self.root = root
        adjacency = network.topology.adjacency
        levels, self.parent = bfs_levels(adjacency, root)
        del self.parent[root]
        self.children: Dict[int, List[int]] = {n: [] for n in adjacency}
        for child, parent in self.parent.items():
            self.children[parent].append(child)
        self.depth: Dict[int, int] = {n: d for d, level in enumerate(levels) for n in level}
        self.max_depth = max(self.depth.values())
        self._pending: Dict[int, int] = {}
        self._state: Dict[int, Optional[Tuple[float, int]]] = {}
        self._func: Optional[str] = None
        self._values: Dict[int, float] = {}
        self.result: Optional[float] = None
        # Handlers are replaced so several aggregators (different
        # functions / roots) can be created over one network; only the
        # most recent runs an epoch at a time.
        for node in network.nodes.values():
            node.register_handler("tag_query", self._on_query, replace=True)
            node.register_handler("tag_partial", self._on_partial, replace=True)

    def start(self, func: str, values: Dict[int, float]) -> None:
        """Disseminate the query and schedule the collection epoch
        (one reading per node)."""
        self.start_multi(
            func, {n: [v] for n, v in values.items()}
        )

    def start_multi(self, func: str, values: Dict[int, List[float]]) -> None:
        """Like :meth:`start` but each node contributes a *list* of
        local readings (e.g. the derived tuples hashed to it)."""
        if func not in SUPPORTED:
            raise NetworkError(f"unsupported aggregate {func!r}")
        self._func = func
        self.result = None
        self._pending = {n: len(c) for n, c in self.children.items()}
        self._state = {
            n: _initial_multi(func, values.get(n, ()))
            for n in self.network.nodes
        }
        # Per-hop slack so a child's partial always precedes its
        # parent's transmission slot.
        slot = 4 * self.network.radio.max_hop_delay
        deadline = self.network.now + (self.max_depth + 2) * slot
        root_node = self.network.node(self.root)
        root_node.local_deliver(_QueryMsg(deadline))

    # -- handlers -------------------------------------------------------

    def _on_query(self, node, message: _QueryMsg) -> None:
        for child in self.children[node.id]:
            node.send(child, _QueryMsg(message.epoch_deadline))
        slot = 4 * self.network.radio.max_hop_delay
        # Leaves fire first; each level up fires one slot later.
        my_time = message.epoch_deadline - self.depth[node.id] * slot
        delay = max(0.0, my_time - self.network.now)
        self.network.sim.schedule(delay, functools.partial(self._emit, node.id))

    def _emit(self, node_id: int) -> None:
        state = self._state[node_id]
        if node_id == self.root:
            self.result = None if state is None else _finalize(self._func, state)
            return
        if state is None:
            return  # nothing to contribute (lost partials also end here)
        node = self.network.node(node_id)
        node.send(self.parent[node_id], _PartialMsg(state))

    def _on_partial(self, node, message: _PartialMsg) -> None:
        mine = self._state[node.id]
        self._state[node.id] = (
            message.state if mine is None else _merge(self._func, mine, message.state)
        )


def naive_collect_cost(network: SensorNetwork, root: int) -> int:
    """Hop-count of shipping every node's raw reading to the root —
    the baseline TAG beats.  (Analytical; no simulation involved.)"""
    return sum(
        network.router.hop_distance(n, root)
        for n in network.topology.node_ids
        if n != root
    )
