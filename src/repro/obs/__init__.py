"""Observability: simulation-time tracing, structured logs, telemetry.

The subsystem has three parts, designed to be near-zero cost when unused:

- :mod:`repro.obs.tracer` — a span/event tracer clocked on *simulated*
  time (wall-clock annotations on the side).  Instrumentation across the
  stack (Tagwatch cycles → phases → inventory rounds → slot batches, plus
  Select/GMM/set-cover/resilience events) writes to the ambient tracer,
  a no-op :class:`~repro.obs.tracer.NullTracer` by default.
- :mod:`repro.obs.exporters` — deterministic JSONL, Chrome trace-event
  JSON (Perfetto-compatible), and Prometheus text exposition.
- :mod:`repro.obs.logging` — a structured logger whose default format is
  byte-identical to the bare ``print()`` it replaced.

This module additionally hosts the *ambient metrics registry*: app-level
telemetry (Tagwatch cycle counters and timing histograms) is recorded only
when a registry is installed — with :func:`use_metrics` or the CLI's
``--metrics-out`` — so default runs and golden traces are untouched.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.exporters import (
    metrics_to_prometheus,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.logging import StructuredLogger, configure, get_logger
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceEvent,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)
from repro.util.metrics import MetricsRegistry

__all__ = [
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "StructuredLogger",
    "TraceEvent",
    "Tracer",
    "configure",
    "get_logger",
    "get_metrics",
    "get_tracer",
    "metrics_to_prometheus",
    "set_metrics",
    "set_tracer",
    "to_chrome_trace",
    "to_jsonl",
    "use_metrics",
    "use_tracer",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]

_metrics: Optional[MetricsRegistry] = None


def get_metrics() -> Optional[MetricsRegistry]:
    """The ambient telemetry registry, or ``None`` when telemetry is off."""
    return _metrics


def set_metrics(registry: Optional[MetricsRegistry]) -> Optional[MetricsRegistry]:
    """Install (or clear, with ``None``) the ambient telemetry registry."""
    global _metrics
    previous = _metrics
    _metrics = registry
    return previous


@contextmanager
def use_metrics(registry: Optional[MetricsRegistry]) -> Iterator[Optional[MetricsRegistry]]:
    """Install an ambient telemetry registry for a ``with`` block."""
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)
