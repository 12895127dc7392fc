"""Distributed in-network evaluation.

Two engines share the compiled plan layer (:mod:`repro.dist.plans`) and
the timestamp-ranked derived-fact ledger (:mod:`repro.dist.derived`):

* :class:`GPAEngine` — stream joins via the (Generalized) Perpendicular
  Approach with pluggable storage/join regions, sliding windows,
  negation, and deletions (Sections III-IV);
* :class:`LocalizedEngine` — attribute-placed programs whose joins are
  local to a node and its neighbors (the shortest-path-tree programs of
  Example 3 / Section VI).
"""

from .baselines import ProceduralBFS
from .derived import DerivedFact, DerivedTable, FactRef, ResultMsg, WireDerivation
from .gpa import (
    Candidate,
    GPAEngine,
    JoinToken,
    NodeRuntime,
    Partial,
    StoreMsg,
)
from .localized import (
    LocalizedEngine,
    Placement,
    build_sptree,
    logich_placements,
    logich_program,
    logicj_placements,
    logicj_program,
    visible_rows,
)
from .plans import DistributedPlan
from .routing_app import RoutingTable, build_routing, routing_program
from .regions import (
    BroadcastRegions,
    CentralizedRegions,
    CentroidRegions,
    LocalStorageRegions,
    PerpendicularRegions,
    RegionStrategy,
    STRATEGIES,
    SpatialClip,
    VirtualGridRegions,
    make_strategy,
)

__all__ = [
    "ProceduralBFS", "Candidate", "DerivedFact", "DerivedTable", "FactRef",
    "GPAEngine", "JoinToken",
    "NodeRuntime", "Partial", "ResultMsg", "StoreMsg", "WireDerivation",
    "LocalizedEngine", "Placement",
    "build_sptree", "logich_placements", "logich_program",
    "logicj_placements", "logicj_program", "visible_rows",
    "DistributedPlan", "RoutingTable", "build_routing",
    "routing_program", "BroadcastRegions", "CentralizedRegions",
    "CentroidRegions", "LocalStorageRegions", "PerpendicularRegions",
    "RegionStrategy", "STRATEGIES", "SpatialClip", "VirtualGridRegions",
    "make_strategy",
]
