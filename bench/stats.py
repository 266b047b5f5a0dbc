"""Percentiles that refuse to report a tail they have too few samples for."""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it, so p95 needs 200 samples and p50 needs 20.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, interpolating linearly between ranks.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond ``q`` (below it, for ``q`` under 50).
    """
    n = len(samples)
    if not 0 < q < 100:
        raise ValueError("percentile must lie strictly between 0 and 100")
    beyond = n * min(q, 100 - q) / 100.0
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} needs {math.ceil(MIN_BEYOND * 100 / min(q, 100 - q))} "
            f"samples, got {n}"
        )
    ordered = sorted(samples)
    rank = (n - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def latency_summary(samples: Sequence[float]) -> Dict[str, Optional[float]]:
    """Sample count, median and p95; a percentile the samples cannot
    support is ``None``."""
    out: Dict[str, Optional[float]] = {"n": len(samples)}
    for q in (50, 95):
        try:
            out[f"p{q}"] = percentile(samples, q)
        except ValueError:
            out[f"p{q}"] = None
    return out
