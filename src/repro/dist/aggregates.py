"""In-network evaluation of aggregate queries.

Section IV-C: "Aggregates can be represented in logic rules using the
all-solutions predicate.  We can use specialized distributed techniques
such as TAG [32] ... for evaluation of incremental aggregates."

The split implemented here mirrors that: the *body* of an aggregate
rule is materialized as an ordinary derived predicate by the GPA engine
(its tuples end up hashed across the network), and the head's aggregate
is then collected with a TAG tree — each node folds the derived tuples
it hosts into one partial state, one transmission per node.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.ast import AGGREGATE_FUNCTORS
from ..core.builtins import eval_term
from ..core.eval import _apply_aggregate
from ..core.errors import PlanError
from ..net.aggregation import TagAggregator
from .gpa import GPAEngine


def local_values(
    engine: GPAEngine,
    predicate: str,
    position: int,
    where=None,
) -> Dict[int, List[float]]:
    """Per-node lists of the ``position``-th argument of the visible
    derived facts hosted at that node.  ``where`` optionally filters on
    the evaluated argument tuple (e.g. one epoch of a stream)."""
    out: Dict[int, List[float]] = {}
    for node_id, runtime in engine.runtimes.items():
        values: List[float] = []
        for _pred, args, _fact in runtime.derived.visible(predicate):
            if where is not None:
                evaluated = tuple(eval_term(a, engine.registry) for a in args)
                if not where(evaluated):
                    continue
            value = eval_term(args[position], engine.registry)
            if not isinstance(value, (int, float)):
                raise PlanError(
                    f"aggregated argument {value!r} is not numeric"
                )
            values.append(float(value))
        if values:
            out[node_id] = values
    return out


class DistributedAggregate:
    """A standing aggregate over a derived predicate.

    ::

        engine = GPAEngine("hot(N, V) :- reading(N, V), V > 70.", net).install()
        agg = DistributedAggregate(engine, "hot", position=1,
                                   func="avg", root=0)
        ... publish readings, net.run_all() ...
        print(agg.collect())     # runs one TAG epoch in-network
    """

    def __init__(
        self,
        engine: GPAEngine,
        predicate: str,
        position: int,
        func: str,
        root: int,
        where=None,
    ):
        if func not in AGGREGATE_FUNCTORS:
            raise PlanError(f"unknown aggregate function {func!r}")
        self.engine = engine
        self.predicate = predicate
        self.position = position
        self.func = func
        self.where = where
        self.tag = TagAggregator(engine.network, root)

    def collect(self) -> Optional[float]:
        """Run one TAG collection epoch over the current derived state;
        returns the aggregate value (None when no tuples exist)."""
        values = local_values(
            self.engine, self.predicate, self.position, self.where
        )
        self.tag.start_multi(self.func, values)
        self.engine.network.run_all()
        return self.tag.result

    def oracle(self) -> Optional[float]:
        """The same aggregate computed centrally (for verification)."""
        values = [
            v for vs in local_values(
                self.engine, self.predicate, self.position, self.where
            ).values()
            for v in vs
        ]
        return float(_apply_aggregate(self.func, values)) if values else None
