"""Warehouse trace generation and analysis (the Section 2.4 case study)."""

from repro.traces.analysis import TraceStats, analyze_trace, reads_per_second
from repro.traces.trackpoint import (
    TraceEvent,
    TrackPointParams,
    generate_trackpoint_trace,
)

__all__ = [
    "TraceEvent",
    "TraceStats",
    "TrackPointParams",
    "analyze_trace",
    "generate_trackpoint_trace",
    "reads_per_second",
]
