"""Shared utilities: RNG plumbing, circular statistics, metrics, tables.

These helpers are deliberately dependency-light (numpy only) and are used by
every other subpackage.  Nothing in here is specific to RFID.
"""

from repro.util.circular import (
    circular_distance,
    circular_std,
    wrap_phase,
)
from repro.util.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.util.rng import RngStream, derive_rng, make_rng
from repro.util.stats import cdf_points, percentile
from repro.util.tables import format_table

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RngStream",
    "cdf_points",
    "circular_distance",
    "circular_std",
    "derive_rng",
    "format_table",
    "make_rng",
    "percentile",
    "wrap_phase",
]
