"""Statistics over reading traces (the numbers quoted in Section 2.4)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.traces.trackpoint import TraceEvent


@dataclass(frozen=True)
class TraceStats:
    """Summary of a reading trace."""

    n_reads: int
    n_tags: int
    duration_s: float
    top_tag_id: int
    top_tag_reads: int
    reads_at_top_10pct: int  # the paper: 10% of tags read over 655 times
    reads_at_top_20pct: int  # the paper: 20% of tags read over 205 times
    median_reads: float

    @property
    def reads_per_second(self) -> float:
        if self.duration_s <= 0:
            raise ValueError("trace has non-positive duration")
        return self.n_reads / self.duration_s


def per_tag_counts(events: Sequence[TraceEvent]) -> Dict[int, int]:
    """Reads per tag id."""
    return dict(Counter(e.tag_id for e in events))


def analyze_trace(events: Sequence[TraceEvent]) -> TraceStats:
    """Compute the paper's headline statistics for a trace."""
    if not events:
        raise ValueError("empty trace")
    counts = per_tag_counts(events)
    values = np.array(sorted(counts.values(), reverse=True))
    n_tags = values.size
    top_tag_id = max(counts, key=counts.get)
    idx10 = max(0, int(np.ceil(n_tags * 0.10)) - 1)
    idx20 = max(0, int(np.ceil(n_tags * 0.20)) - 1)
    times = [e.time_s for e in events]
    return TraceStats(
        n_reads=len(events),
        n_tags=n_tags,
        duration_s=max(times) - min(times),
        top_tag_id=top_tag_id,
        top_tag_reads=int(values[0]),
        reads_at_top_10pct=int(values[idx10]),
        reads_at_top_20pct=int(values[idx20]),
        median_reads=float(np.median(values)),
    )


def reads_per_second(
    events: Sequence[TraceEvent], bin_s: float = 60.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Reading-rate timeline (Fig 3): bin centres and reads/second."""
    if not events:
        raise ValueError("empty trace")
    if bin_s <= 0:
        raise ValueError("bin width must be positive")
    times = np.array([e.time_s for e in events])
    t_max = times.max()
    edges = np.arange(0.0, t_max + bin_s, bin_s)
    counts, _ = np.histogram(times, bins=edges)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, counts / bin_s


def count_cdf(events: Sequence[TraceEvent]) -> Tuple[np.ndarray, np.ndarray]:
    """CDF of per-tag read counts (Fig 4)."""
    counts = np.sort(np.array(list(per_tag_counts(events).values())))
    probs = np.arange(1, counts.size + 1) / counts.size
    return counts, probs
