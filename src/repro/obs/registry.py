"""Process-wide metric registry: counters, gauges, histograms.

Prometheus-shaped but dependency-free.  A :class:`Registry` owns named
*families*; a family with label names hands out per-label-value
children (``family.labels(rule="r1").inc()``), a family without label
names acts directly as its single child.  Histograms use fixed
log-scale buckets so latencies spanning microseconds to minutes land in
meaningfully-sized bins without any configuration.

Everything here is plain dict-and-int bookkeeping: cheap enough to call
on hot paths when telemetry is enabled, and never called at all when it
is not (call sites check :data:`repro.obs.state.enabled` first).
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


#: Default bounds: 1µs .. 10ks in half-decade steps — wide enough for
#: both wall-clock section timings and simulated phase latencies —
#: rounded to 3 significant digits so exposition output stays readable
#: (3.16e-06, not 3.1622776601683795e-06).
DEFAULT_BUCKETS = tuple(float(f"{10.0 ** (k / 2):.3g}") for k in range(-12, 9))

#: Bounds suited to integer work counts (delta sizes, iterations).
COUNT_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000,
                 10_000, 50_000, 100_000, 1_000_000)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment {amount} is negative")
        self.value += amount


class Gauge:
    """A value that can go up and down (plus max-tracking for
    high-water marks)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def set_max(self, value: float) -> None:
        """Keep the maximum of the current and given value."""
        if value > self.value:
            self.value = value


class Histogram:
    """Observations binned into fixed (log-scale by default) buckets.

    ``counts[i]`` counts observations ``<= bounds[i]``; the final slot
    is the +Inf overflow bucket.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding
        the q-th observation (conservative, like Prometheus's
        histogram_quantile without interpolation)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} out of [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Family:
    """A named metric with a fixed label-name schema.

    With label names, :meth:`labels` returns (and caches) the child for
    one label-value combination.  Without label names the family owns a
    single anonymous child and proxies its methods, so
    ``registry.counter("x", "...").inc()`` just works.
    """

    def __init__(self, kind: str, name: str, help: str,
                 labelnames: Sequence[str] = (), **child_kwargs):
        self.kind = kind
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._child_kwargs = child_kwargs
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames:
            self._children[()] = _KINDS[kind](**child_kwargs)

    def labels(self, **labels):
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = _KINDS[self.kind](**self._child_kwargs)
            self._children[key] = child
        return child

    def series(self) -> Iterator[Tuple[Tuple[str, ...], object]]:
        """(label values, child) pairs in insertion order."""
        return iter(self._children.items())

    # -- unlabeled convenience proxies ---------------------------------

    def _solo(self):
        if self.labelnames:
            raise ValueError(f"{self.name} has labels {self.labelnames}; "
                             "use .labels(...)")
        return self._children[()]

    def inc(self, amount: float = 1) -> None:
        self._solo().inc(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def set_max(self, value: float) -> None:
        self._solo().set_max(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    @property
    def value(self):
        return self._solo().value


class Registry:
    """Name → :class:`Family`; registration is idempotent (re-declaring
    the same name with the same kind returns the existing family)."""

    def __init__(self):
        self._families: Dict[str, Family] = {}
        self._lock = threading.Lock()

    def _register(self, kind: str, name: str, help: str,
                  labelnames: Sequence[str], **kwargs) -> Family:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}{family.labelnames}"
                    )
                return family
            family = Family(kind, name, help, labelnames, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Family:
        return self._register("counter", name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Family:
        return self._register("gauge", name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Family:
        return self._register("histogram", name, help, labelnames,
                              bounds=buckets)

    def get(self, name: str) -> Optional[Family]:
        return self._families.get(name)

    def families(self) -> List[Family]:
        return list(self._families.values())

    def reset(self) -> None:
        """Zero every series (families and label schemas survive, so
        cached ``.labels()`` children keep working)."""
        with self._lock:
            for family in self._families.values():
                for child in family._children.values():
                    if isinstance(child, Histogram):
                        child.counts = [0] * (len(child.bounds) + 1)
                        child.sum = 0.0
                        child.count = 0
                    else:
                        child.value = 0


#: The process-wide default registry every instrumentation site uses.
REGISTRY = Registry()
