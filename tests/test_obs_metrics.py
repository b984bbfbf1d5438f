"""Metrics registry: counters, gauges, labels, cardinality."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, format_series


class TestSeriesIdentity:
    def test_get_or_create_returns_same_handle(self):
        reg = MetricsRegistry()
        a = reg.counter("page_faults", size="2m")
        b = reg.counter("page_faults", size="2m")
        assert a is b

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("x", fs="WineFS", size="4k")
        b = reg.counter("x", size="4k", fs="WineFS")
        assert a is b

    def test_distinct_labels_are_distinct_series(self):
        reg = MetricsRegistry()
        a = reg.counter("page_faults", size="4k")
        b = reg.counter("page_faults", size="2m")
        assert a is not b
        assert reg.series_count("page_faults") == 2

    def test_format_series(self):
        reg = MetricsRegistry()
        c = reg.counter("page_faults", size="2m", fs="winefs")
        assert c.series == 'page_faults{fs="winefs",size="2m"}'
        assert format_series("plain", ()) == "plain"

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x", a="1")
        with pytest.raises(ObservabilityError):
            reg.gauge("x", a="1")
        reg.gauge("y", a="1")
        with pytest.raises(ObservabilityError):
            reg.counter("y", a="1")


class TestCounter:
    def test_inc(self):
        c = Counter("c", ())
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_negative_inc_rejected(self):
        c = Counter("c", ())
        with pytest.raises(ObservabilityError):
            c.inc(-1)

    def test_direct_value_assignment(self):
        # compatibility path used by the EventCounters property setters
        c = Counter("c", ())
        c.value = 42
        assert c.value == 42


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("g", ())
        g.set(10.0)
        g.inc(5.0)
        g.dec(2.0)
        assert g.value == 13.0

    def test_callback_backed(self):
        state = {"n": 3}
        g = Gauge("g", (), fn=lambda: state["n"])
        assert g.value == 3
        state["n"] = 9
        assert g.value == 9

    def test_set_on_callback_gauge_rejected(self):
        g = Gauge("g", (), fn=lambda: 1.0)
        with pytest.raises(ObservabilityError):
            g.set(2.0)


class TestCardinality:
    def test_cap_per_name(self):
        reg = MetricsRegistry(max_series_per_name=4)
        for i in range(4):
            reg.counter("ops", path=str(i))
        with pytest.raises(ObservabilityError):
            reg.counter("ops", path="too-many")
        # other metric names are unaffected
        reg.counter("other", path="0")

    def test_existing_series_unaffected_by_cap(self):
        reg = MetricsRegistry(max_series_per_name=1)
        c = reg.counter("ops")
        assert reg.counter("ops") is c


class TestRegistryIntrospection:
    def test_value_lookup_with_default(self):
        reg = MetricsRegistry()
        reg.counter("x", a="1").inc(7)
        assert reg.value("x", a="1") == 7
        assert reg.value("x", a="2") == 0.0
        assert reg.value("missing", default=-1.0) == -1.0

    def test_as_dict_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g", fn=lambda: 5.0)
        assert reg.as_dict() == {"c": 2, "g": 5.0}

    def test_collect_and_counts(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.counter("b", k="1")
        assert len(list(reg.collect())) == 2
        assert reg.series_count() == 2
        assert reg.series_count("a") == 1
