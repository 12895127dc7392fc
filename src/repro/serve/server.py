"""The multi-tenant query server.

:class:`QueryServer` admits N concurrent deductive programs (tenants)
over one shared simulated network and runs them in epochs:

1. **admission** — a tenant arrives with a program and budgets; the
   server validates it by compiling the very engine that will run it, a
   tenant-namespaced :class:`~repro.dist.gpa.GPAEngine` whose GHT
   lookups go through the tenant's keyspace partition, and installs
   that.  Refusals (duplicate id, capacity, a program GPA cannot run)
   raise :class:`~repro.serve.session.AdmissionError` without touching
   the network.
2. **epoch loop** — each epoch the scheduler interleaves every running
   tenant's next publish batch over the epoch window; the network
   drains; each tenant's output predicates are gathered to the sink
   (message-costed result delivery); message budgets are enforced
   (over-budget tenants are evicted); and, when enabled, the adaptive
   placer gets one migration decision on the quiesced network.
3. **accounting** — a :class:`TenantMeter` radio observer attributes
   every transmission to the tenant whose phase message it carries, so
   budgets and the ``tenant_msgs`` telemetry family see shared-
   substrate traffic per tenant.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import ReproError
from ..dist.gpa import GPAEngine
from ..obs import instrument as _inst
from ..obs import state as _obs
from .placement import SINK, AdaptivePlacer
from .scheduler import EpochScheduler
from .session import AdmissionError, TenantBudget, TenantSession


class TenantMeter:
    """Radio observer attributing transmissions to tenants.

    Phase messages carry a ``tenant`` attribute (stamped by
    ``GPAEngine._tag``); routed envelopes are unwrapped to the inner
    message.  Untagged traffic (acks, single-tenant phases) is left
    unattributed.  Counts always accumulate in :attr:`tx` — budgets
    must work with telemetry off — and additionally feed the
    ``tenant_msgs`` family when telemetry is on.
    """

    def __init__(self):
        self.tx: Dict[str, int] = {}

    def __call__(self, event) -> None:
        if event.event != "tx":
            return
        msg = event.message
        tenant = getattr(msg, "tenant", None)
        while tenant is None:
            msg = getattr(msg, "inner", None)
            if msg is None:
                return
            tenant = getattr(msg, "tenant", None)
        self.tx[tenant] = self.tx.get(tenant, 0) + 1
        if _obs.enabled:
            _inst.tenant_msgs.labels(tenant=tenant).inc()


#: Values every caller used (src, benchmarks, examples and tests): the
#: epoch length in simulated time units, publishes per tenant per epoch,
#: every tenant engine's region strategy.
_EPOCH = 0.5
_BATCH = 4
_STRATEGY = "pa"

#: Tenants a server admits before it refuses with "capacity".
_MAX_TENANTS = 16


class QueryServer:
    """Admits and serves concurrent tenant programs on one network."""

    def __init__(self, network, placement: bool = True):
        self.network = network
        self.scheduler = EpochScheduler(epoch=_EPOCH, batch=_BATCH)
        self.placer = AdaptivePlacer(network) if placement else None
        self.meter = TenantMeter()
        network.radio.subscribe(self.meter)
        self.sessions: Dict[str, TenantSession] = {}
        #: (tenant, reason) for every refusal and eviction.
        self.rejections: List[Tuple[str, str]] = []
        self.epochs_run = 0
        self._lock = threading.Lock()

    # -- admission --------------------------------------------------------

    def admit(
        self,
        tenant: str,
        program,
        max_facts: int = 10_000,
        max_messages: int = 1_000_000,
        outputs: Optional[Sequence[str]] = None,
        **engine_kwargs,
    ) -> TenantSession:
        """Admit one tenant, or raise :class:`AdmissionError`.

        The program is validated by compiling the tenant's engine —
        parse, safety, stratification, the distributed plan — which
        registers nothing on the network; only an admitted tenant is
        installed.  ``engine_kwargs`` go to the tenant's
        :class:`~repro.dist.gpa.GPAEngine`: with ``mode="pipelined"``
        each rule the release analysis clears streams derivations
        without phase barriers and every other keeps them, with its
        reason (visible in :meth:`report`).  Thread-safe — admission may run
        concurrently with other admissions.
        """
        try:
            engine = GPAEngine(
                program,
                self.network,
                strategy=_STRATEGY,
                tenant=tenant,
                # One storage region per result predicate: the unit the
                # adaptive placer migrates.
                ght=self.network.ght.partition(tenant, coarse=True),
                **engine_kwargs,
            )
        except ReproError as exc:
            self._reject(tenant, "invalid_program", str(exc))
        program = engine.plan.program
        with self._lock:
            if tenant in self.sessions:
                self._reject(tenant, "duplicate")
            if len(self.sessions) >= _MAX_TENANTS:
                self._reject(tenant, "capacity")
            engine.install()
            if outputs is None:
                outputs = tuple(sorted(program.idb_predicates()))
            session = TenantSession(
                tenant, program, engine,
                TenantBudget(max_facts, max_messages),
                tuple(outputs), index=len(self.sessions),
            )
            self.sessions[tenant] = session
            return session

    def _reject(self, tenant: str, reason: str, detail: str = "") -> None:
        self.rejections.append((tenant, reason))
        if _obs.enabled:
            _inst.tenant_rejections.labels(tenant=tenant, reason=reason).inc()
        raise AdmissionError(tenant, reason, detail)

    # -- workload ---------------------------------------------------------

    def submit(self, tenant: str, publishes) -> TenantSession:
        """Queue publishes for a tenant's future epochs."""
        session = self.session(tenant)
        session.extend(publishes)
        return session

    def session(self, tenant: str) -> TenantSession:
        session = self.sessions.get(tenant)
        if session is None:
            raise AdmissionError(tenant, "unknown", "tenant was never admitted")
        return session

    # -- the epoch loop ---------------------------------------------------

    def run(self) -> int:
        """Serve epochs until every tenant's queue drains.  Returns the
        number of epochs run."""
        ran = 0
        while True:
            scheduled = self.scheduler.schedule(
                self.network, list(self.sessions.values())
            )
            if scheduled == 0 and self.scheduler.backlog(
                self.sessions.values()
            ) == 0:
                break
            self.network.run_all()
            self._gather_epoch()
            self._enforce_budgets()
            if self.placer is not None:
                self.placer.step(self.epochs_run, list(self.sessions.values()))
            ran += 1
            self.epochs_run += 1
        return ran

    def _gather_epoch(self) -> None:
        """Deliver every active tenant's current results to the sink
        (message-costed, like a base station polling each epoch)."""
        for session in self.sessions.values():
            if not session.active:
                continue
            for pred in session.outputs:
                session.results[pred] = session.engine.gather(pred, SINK)

    def _enforce_budgets(self) -> None:
        for session in self.sessions.values():
            if not session.active:
                continue
            used = self.meter.tx.get(session.tenant, 0)
            if used > session.budget.max_messages:
                session.state = "evicted"
                self.rejections.append((session.tenant, "message_budget"))
                if _obs.enabled:
                    _inst.tenant_rejections.labels(
                        tenant=session.tenant, reason="message_budget"
                    ).inc()

    # -- reporting --------------------------------------------------------

    def results(self, tenant: str, pred: str):
        """The rows gathered at the sink for one tenant predicate."""
        return self.session(tenant).results.get(pred, set())

    def report(self) -> Dict[str, object]:
        """Aggregate serving summary: makespan, per-tenant counters,
        placement activity."""
        tenants = {}
        for session in self.sessions.values():
            engine = session.engine
            tenants[session.tenant] = {
                "state": session.state,
                "published": session.published,
                "dropped": session.dropped,
                "messages": self.meter.tx.get(session.tenant, 0),
                "results": sum(len(r) for r in session.results.values()),
                "mode": engine.mode,
                "coordination": {
                    rid: why or "stream" for rid, why in engine.releases.items()
                },
            }
        out: Dict[str, object] = {
            "epochs": self.epochs_run,
            "makespan": self.network.now,
            "tenants": tenants,
            "rejections": list(self.rejections),
        }
        if self.placer is not None:
            out["migrations"] = len(self.placer.moves)
            out["imbalance"] = list(self.placer.imbalance_history)
        return out
