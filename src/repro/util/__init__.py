"""Shared utilities: RNG plumbing, circular statistics, summaries, tables.

These helpers are deliberately dependency-light (numpy only) and are used by
every other subpackage.  Nothing in here is specific to RFID.
"""

from repro.util.circular import (
    circular_distance,
    circular_mean,
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
from repro.util.stats import (
    Summary,
    cdf_points,
    empirical_cdf,
    percentile,
    summarize,
)
from repro.util.tables import format_series, format_table

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RngStream",
    "Summary",
    "cdf_points",
    "circular_distance",
    "circular_mean",
    "circular_std",
    "derive_rng",
    "empirical_cdf",
    "format_series",
    "format_table",
    "make_rng",
    "percentile",
    "summarize",
    "wrap_phase",
]
