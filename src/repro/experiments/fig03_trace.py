"""Fig 3 + Fig 4 / Section 2.4: the TrackPoint case-study trace.

Generates the synthetic sorting-gate trace and reports the statistics the
paper quotes: total reads, tag count, the stuck tag's read count, the
10%/20% quantile claims, the reads-per-second timeline (Fig 3), and the CDF
of per-tag read counts (Fig 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.traces import (
    TrackPointParams,
    analyze_trace,
    generate_trackpoint_trace,
)
from repro.traces.analysis import count_cdf, per_tag_counts, reads_per_second
from repro.traces.trackpoint import expected_reads_if_fair
from repro.util.tables import format_table, sparkline


@dataclass
class Fig03Result:
    params: TrackPointParams
    n_reads: int
    n_tags: int
    top_tag_reads: int
    reads_at_top_10pct: int
    reads_at_top_20pct: int
    conveyed_mean_reads: float
    conveyed_under_5_fraction: float
    expected_fair_reads: float
    timeline: Tuple[np.ndarray, np.ndarray]  # Fig 3
    cdf: Tuple[np.ndarray, np.ndarray]  # Fig 4


def run(
    params: TrackPointParams = TrackPointParams(), seed: int = 3
) -> Fig03Result:
    """Generate the synthetic trace and compute Section 2.4's statistics."""
    events = generate_trackpoint_trace(params, rng=seed)
    stats = analyze_trace(events)
    counts = per_tag_counts(events)
    conveyed = np.array(
        [counts.get(i, 0) for i in range(params.n_parked, params.n_tags)]
    )
    return Fig03Result(
        params=params,
        n_reads=stats.n_reads,
        n_tags=stats.n_tags,
        top_tag_reads=stats.top_tag_reads,
        reads_at_top_10pct=stats.reads_at_top_10pct,
        reads_at_top_20pct=stats.reads_at_top_20pct,
        conveyed_mean_reads=float(conveyed.mean()),
        conveyed_under_5_fraction=float((conveyed < 5).mean()),
        expected_fair_reads=expected_reads_if_fair(params),
        timeline=reads_per_second(events, bin_s=300.0),
        cdf=count_cdf(events),
    )


def format_report(result: Fig03Result) -> str:
    """Render the paper-style table for this figure."""
    headers = ["metric", "measured", "paper"]
    rows = [
        ["total reads", result.n_reads, 367536],
        ["tags read", result.n_tags, 527],
        ["stuck-tag reads", result.top_tag_reads, "~90000"],
        ["reads at top-10% tag", result.reads_at_top_10pct, ">655"],
        ["reads at top-20% tag", result.reads_at_top_20pct, ">205"],
        [
            "conveyed reads/transit (mean)",
            f"{result.conveyed_mean_reads:.1f}",
            "<5",
        ],
        [
            "conveyed transits with <5 reads",
            f"{result.conveyed_under_5_fraction * 100:.0f}%",
            "typical",
        ],
        [
            "fair-share reads/transit",
            f"{result.expected_fair_reads:.0f}",
            "~50",
        ],
    ]
    table = format_table(headers, rows, title="Fig 3/4 — TrackPoint trace")
    timeline = sparkline(list(result.timeline[1]))
    return f"{table}\nreads/s timeline (Fig 3): {timeline}"
