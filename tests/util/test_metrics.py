"""MetricsRegistry: counters, gauges, histograms, deterministic export."""

import json

import pytest

from repro.util.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter_monotone():
    counter = Counter("c")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_counter_export_integerises_whole_values():
    counter = Counter("c")
    counter.inc(3)
    assert counter.to_dict() == {"type": "counter", "value": 3}
    assert isinstance(counter.to_dict()["value"], int)


def test_gauge_moves_both_ways():
    gauge = Gauge("g")
    gauge.set(5)
    gauge.set(3)
    gauge.inc(0.5)
    assert gauge.value == 3.5
    assert gauge.to_dict() == {"type": "gauge", "value": 3.5}


def test_histogram_moments_and_percentiles():
    hist = Histogram("h")
    for v in [1.0, 2.0, 3.0, 4.0]:
        hist.observe(v)
    assert hist.count == 4
    assert hist.total == 10.0
    assert hist.percentile(0) == 1.0
    assert hist.percentile(100) == 4.0
    assert hist.percentile(50) == 2.5  # linear interpolation
    exported = hist.to_dict()
    assert exported["count"] == 4
    assert exported["mean"] == 2.5
    assert exported["min"] == 1.0
    assert exported["max"] == 4.0


def test_histogram_rejects_bad_input():
    hist = Histogram("h")
    with pytest.raises(ValueError):
        hist.observe(float("nan"))
    with pytest.raises(ValueError):
        hist.observe(float("inf"))
    with pytest.raises(ValueError):
        hist.percentile(101)
    with pytest.raises(ValueError):
        hist.percentile(-0.5)


def test_empty_histogram_percentile_is_defined():
    hist = Histogram("h")
    # A mid-run metrics dump may serialise before anything was observed:
    # every quantile of an empty histogram is 0, including the edges.
    assert hist.percentile(0) == 0.0
    assert hist.percentile(50) == 0.0
    assert hist.percentile(100) == 0.0


def test_single_sample_percentile_edges():
    hist = Histogram("h")
    hist.observe(2.5)
    assert hist.percentile(0) == 2.5
    assert hist.percentile(100) == 2.5


def test_empty_histogram_export():
    assert Histogram("h").to_dict() == {
        "type": "histogram",
        "count": 0,
        "sum": 0.0,
        "min": 0.0,
        "max": 0.0,
        "mean": 0.0,
        "p50": 0.0,
        "p90": 0.0,
    }


def test_registry_creates_on_first_use_and_reuses():
    registry = MetricsRegistry()
    a = registry.counter("x")
    b = registry.counter("x")
    assert a is b


def test_registry_rejects_type_clash():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("x")
    with pytest.raises(ValueError, match="already registered"):
        registry.histogram("x")


def test_registry_value_lookup():
    registry = MetricsRegistry()
    registry.counter("c").inc(2)
    registry.gauge("g").set(7)
    registry.histogram("h").observe(0.5)
    assert registry.value("c") == 2
    assert registry.value("g") == 7
    assert registry.value("h") == 1  # histograms report their sample count
    assert registry.value("missing", default=0) == 0
    with pytest.raises(KeyError):
        registry.value("missing")


def test_registry_names_sorted():
    registry = MetricsRegistry()
    registry.histogram("z")
    registry.counter("a")
    registry.gauge("m")
    assert registry.names() == ["a", "m", "z"]


def test_json_export_is_deterministic():
    """Two registries populated in different orders export identically."""

    def build(order):
        registry = MetricsRegistry()
        for name in order:
            registry.counter(name).inc()
        registry.histogram("h").observe(0.123456789123)
        return registry

    a = build(["x", "y", "z"])
    b = build(["z", "x", "y"])
    assert a.to_json() == b.to_json()
    parsed = json.loads(a.to_json())
    assert list(parsed) == sorted(parsed)


def test_export_rounds_floats():
    registry = MetricsRegistry()
    registry.histogram("h").observe(1 / 3)
    exported = registry.to_dict()["h"]
    assert exported["sum"] == round(1 / 3, 9)
