"""Structured runtime metrics: counters, gauges, and histograms.

Production middleware needs to report *how* it degraded, not only whether it
crashed.  This module provides a small, dependency-free metrics registry in
the style of ``prometheus_client``: named counters, gauges, and streaming
histograms with a deterministic JSON export (sorted keys, no timestamps), so
two runs with the same seed produce byte-identical metric dumps — the
property the fault-injection tests assert.

Nothing here is RFID-specific; the fault injectors, the resilient LLRP
client, and the Tagwatch degradation path all write into one shared
:class:`MetricsRegistry` that the CLI serialises with ``--metrics-out``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing named count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: Number = 1) -> None:
        """Add a non-negative amount (default 1)."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge instead")
        self.value += amount

    def to_dict(self) -> Dict[str, Number]:
        """Export shape: type tag plus current value."""
        value = self.value
        return {"type": "counter", "value": int(value) if value == int(value) else value}


class Gauge:
    """A named value that can move both ways (e.g. circuit-breaker state)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: Number) -> None:
        """Overwrite the gauge value."""
        self.value = float(value)

    def inc(self, amount: Number = 1) -> None:
        """Move the gauge up."""
        self.value += amount

    def to_dict(self) -> Dict[str, Number]:
        """Export shape: type tag plus current value."""
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A streaming histogram keeping exact moments plus every observation.

    Populations here are small (hundreds of retries/backoffs per run), so the
    histogram simply retains its samples; the export rounds to 9 decimal
    places, which is enough for byte-stable replay comparisons while hiding
    last-ulp float noise from serialisation.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[float] = []

    def observe(self, value: Number) -> None:
        """Record one sample (must be finite)."""
        if not math.isfinite(value):
            raise ValueError(f"histogram {self.name}: non-finite sample {value!r}")
        self._samples.append(float(value))

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return float(sum(self._samples))

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile of the observed samples.

        An empty histogram has a defined (zero) percentile at every q, so
        a metrics dump taken mid-run — before anything was observed — can
        always be serialised instead of blowing up the exporter.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if not self._samples:
            return 0.0
        data = sorted(self._samples)
        rank = (len(data) - 1) * q / 100.0
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return data[low]
        frac = rank - low
        return data[low] * (1 - frac) + data[high] * frac

    def to_dict(self) -> Dict[str, Number]:
        """Export shape: count/sum/min/max/mean plus p50 and p90.

        A zero-sample histogram exports the same keys with zero values, so
        downstream consumers (Prometheus exposition, bench reports) never
        need a special case for "registered but nothing observed yet".
        """
        if not self._samples:
            return {
                "type": "histogram",
                "count": 0,
                "sum": 0.0,
                "min": 0.0,
                "max": 0.0,
                "mean": 0.0,
                "p50": 0.0,
                "p90": 0.0,
            }
        return {
            "type": "histogram",
            "count": self.count,
            "sum": round(self.total, 9),
            "min": round(min(self._samples), 9),
            "max": round(max(self._samples), 9),
            "mean": round(self.total / self.count, 9),
            "p50": round(self.percentile(50), 9),
            "p90": round(self.percentile(90), 9),
        }


@dataclass
class MetricsRegistry:
    """A flat namespace of metrics, shared across subsystem boundaries.

    >>> registry = MetricsRegistry()
    >>> registry.counter("client.retries").inc()
    >>> registry.histogram("client.backoff_s").observe(0.25)
    >>> registry.to_dict()["client.retries"]["value"]
    1
    """

    _counters: Dict[str, Counter] = field(default_factory=dict)
    _gauges: Dict[str, Gauge] = field(default_factory=dict)
    _histograms: Dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        """The counter with this name, created on first use."""
        metric = self._counters.get(name)
        if metric is None:
            self._check_fresh(name)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge with this name, created on first use."""
        metric = self._gauges.get(name)
        if metric is None:
            self._check_fresh(name)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        """The histogram with this name, created on first use."""
        metric = self._histograms.get(name)
        if metric is None:
            self._check_fresh(name)
            metric = self._histograms[name] = Histogram(name)
        return metric

    def _check_fresh(self, name: str) -> None:
        for table in (self._counters, self._gauges, self._histograms):
            if name in table:
                raise ValueError(
                    f"metric {name!r} already registered with another type"
                )

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(
            list(self._counters) + list(self._gauges) + list(self._histograms)
        )

    def value(self, name: str, default: Optional[Number] = None) -> Number:
        """Scalar value of a counter/gauge (histograms: the sample count)."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        if name in self._histograms:
            return self._histograms[name].count
        if default is not None:
            return default
        raise KeyError(name)

    def to_dict(self) -> Dict[str, Dict[str, Number]]:
        """All metrics, keyed by name, in deterministic sorted order."""
        merged: Dict[str, Dict[str, Number]] = {}
        for table in (self._counters, self._gauges, self._histograms):
            for name, metric in table.items():
                merged[name] = metric.to_dict()
        return {name: merged[name] for name in sorted(merged)}

    def to_json(self, indent: int = 2) -> str:
        """Deterministic JSON export (sorted keys, stable float rounding)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
