"""Tenant sessions: one admitted program's identity, budgets and state.

A session is what admission hands back: the tenant's parsed program,
its private :class:`~repro.dist.gpa.GPAEngine` (handler kinds
namespaced with the tenant id, GHT lookups through the tenant's
keyspace partition) and its resource budgets.  Sessions never touch
each other's state — the only shared object is the network substrate,
which is tenant-safe by construction.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..core.errors import ReproError

#: A queued publish: (origin node, predicate, ground args).
Publish = Tuple[int, str, tuple]


class AdmissionError(ReproError):
    """Raised when the server refuses a tenant — duplicate id, server
    at capacity, or a program that fails admission-time compilation.
    The refusal is *graceful*: nothing was installed on the network and
    already-admitted tenants are untouched."""

    def __init__(self, tenant: str, reason: str, detail: str = ""):
        self.tenant = tenant
        self.reason = reason
        message = f"tenant {tenant!r} rejected ({reason})"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class TenantBudget:
    """Per-tenant resource ceilings.

    * ``max_facts`` — publishes the tenant may inject over its lifetime;
      excess publishes are dropped (and counted as rejections) rather
      than crashing the session.
    * ``max_messages`` — radio transmissions attributable to the
      tenant's phase traffic; a tenant found over budget at an epoch
      boundary is evicted (state ``'evicted'``) and stops being
      scheduled.
    """

    __slots__ = ("max_facts", "max_messages")

    def __init__(self, max_facts: int = 10_000, max_messages: int = 1_000_000):
        if max_facts < 1 or max_messages < 1:
            raise ValueError("tenant budgets must be positive")
        self.max_facts = max_facts
        self.max_messages = max_messages


class TenantSession:
    """One admitted tenant: program, engine, budgets, publish queue."""

    def __init__(
        self,
        tenant: str,
        program,
        engine,
        budget: TenantBudget,
        outputs: Tuple[str, ...],
        index: int,
    ):
        self.tenant = tenant
        self.program = program
        self.engine = engine
        self.budget = budget
        #: Output predicates gathered to the sink every epoch.
        self.outputs = outputs
        #: Admission order (the scheduler's deterministic lane).
        self.index = index
        #: 'running' | 'evicted' | 'drained'
        self.state = "running"
        self.pending: Deque[Publish] = deque()
        self.published = 0
        #: Publishes dropped against the fact budget.
        self.dropped = 0
        #: Latest gathered rows per output predicate.
        self.results: Dict[str, Set[tuple]] = {}

    # -- workload --------------------------------------------------------

    def enqueue(self, node: int, pred: str, args: tuple) -> None:
        """Queue one publish for a future epoch."""
        self.pending.append((node, pred, args))
        if self.state == "drained":
            self.state = "running"

    def extend(self, publishes) -> None:
        for node, pred, args in publishes:
            self.enqueue(node, pred, args)

    def take(self, k: int) -> List[Publish]:
        """Dequeue up to ``k`` publishes within the fact budget.
        Over-budget publishes are dropped and counted in ``dropped``
        (the caller reports them as rejections)."""
        out: List[Publish] = []
        while self.pending and len(out) < k:
            if self.published >= self.budget.max_facts:
                self.dropped += len(self.pending)
                self.pending.clear()
                break
            out.append(self.pending.popleft())
            self.published += 1
        if not self.pending and self.state == "running" and not out:
            self.state = "drained"
        return out

    @property
    def active(self) -> bool:
        """Still scheduled: running, or drained but gathering results."""
        return self.state != "evicted"

    def delivery_report(self) -> Dict[str, object]:
        """This tenant's routed-delivery outcomes (per-engine, so the
        report is tenant-scoped by construction)."""
        return self.engine.delivery_report()

    def rows(self, pred: str) -> Set[tuple]:
        """Current derived rows (observer API, no message cost)."""
        return self.engine.rows(pred)

    def __repr__(self) -> str:
        return (
            f"TenantSession({self.tenant!r}, state={self.state!r}, "
            f"published={self.published}, pending={len(self.pending)})"
        )
