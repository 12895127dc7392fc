"""Unit tests for the repro.obs metric registry."""

import pytest

from repro.obs.registry import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Registry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter()
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12

    def test_set_max_keeps_high_water_mark(self):
        g = Gauge()
        g.set_max(7)
        g.set_max(3)
        g.set_max(9)
        assert g.value == 9


class TestHistogram:
    def test_sum_count_mean(self):
        h = Histogram(bounds=(1, 10, 100))
        for v in (0.5, 5, 50, 500):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(555.5)
        assert h.mean() == pytest.approx(555.5 / 4)

    def test_bucketing_is_cumulative_upper_bound(self):
        h = Histogram(bounds=(1, 10, 100))
        for v in (0.5, 5, 50, 500):
            h.observe(v)
        # counts: <=1, <=10, <=100, +Inf
        assert h.counts == [1, 1, 1, 1]

    def test_boundary_lands_in_its_bucket(self):
        h = Histogram(bounds=(1, 10))
        h.observe(1)
        h.observe(10)
        assert h.counts == [1, 1, 0]

    def test_quantile_approximation(self):
        h = Histogram(bounds=(1, 2, 4, 8))
        for _ in range(99):
            h.observe(1.5)
        h.observe(7)
        assert h.quantile(0.5) == 2
        assert h.quantile(1.0) == 8
        assert Histogram().quantile(0.5) == 0.0

    def test_default_buckets(self):
        """1µs .. 10ks, two per decade, at 3 significant digits."""
        assert DEFAULT_BUCKETS[0] == 1e-6 and DEFAULT_BUCKETS[-1] == 1e4
        assert len(DEFAULT_BUCKETS) == 21
        assert DEFAULT_BUCKETS[1] == 3.16e-6 and DEFAULT_BUCKETS[12] == 1.0
        assert all(b2 > b1 for b1, b2 in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:]))


class TestFamiliesAndLabels:
    def test_unlabeled_family_proxies_single_child(self):
        reg = Registry()
        c = reg.counter("hits_total", "hits")
        c.inc(2)
        assert c.value == 2

    def test_labeled_children_are_independent_and_cached(self):
        reg = Registry()
        fam = reg.counter("firings", "per rule", labelnames=("rule",))
        fam.labels(rule="r1").inc()
        fam.labels(rule="r1").inc()
        fam.labels(rule="r2").inc()
        assert fam.labels(rule="r1").value == 2
        assert fam.labels(rule="r2").value == 1
        assert fam.labels(rule="r1") is fam.labels(rule="r1")

    def test_label_values_coerced_to_str(self):
        reg = Registry()
        fam = reg.gauge("depth", "", labelnames=("node",))
        fam.labels(node=3).set(5)
        assert fam.labels(node="3").value == 5

    def test_wrong_label_names_rejected(self):
        reg = Registry()
        fam = reg.counter("x", "", labelnames=("a",))
        with pytest.raises(ValueError):
            fam.labels(b=1)
        with pytest.raises(ValueError):
            fam.inc()  # labeled family has no anonymous child

    def test_registration_is_idempotent(self):
        reg = Registry()
        a = reg.counter("same", "", labelnames=("l",))
        b = reg.counter("same", "", labelnames=("l",))
        assert a is b

    def test_conflicting_reregistration_rejected(self):
        reg = Registry()
        reg.counter("name", "")
        with pytest.raises(ValueError):
            reg.gauge("name", "")
        with pytest.raises(ValueError):
            reg.counter("name", "", labelnames=("other",))

    def test_histogram_family_custom_buckets(self):
        reg = Registry()
        fam = reg.histogram("iters", "", labelnames=("e",),
                            buckets=COUNT_BUCKETS)
        fam.labels(e="sn").observe(3)
        assert fam.labels(e="sn").bounds == COUNT_BUCKETS

    def test_reset_zeroes_but_keeps_schema(self):
        reg = Registry()
        c = reg.counter("c", "", labelnames=("l",))
        h = reg.histogram("h", "")
        child = c.labels(l="x")
        child.inc(5)
        h.observe(1.0)
        reg.reset()
        assert child.value == 0
        assert h._solo().count == 0 and h._solo().sum == 0.0
        # Cached children still usable after reset.
        child.inc()
        assert c.labels(l="x").value == 1
