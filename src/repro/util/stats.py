"""Small statistics helpers used by experiments and benchmarks."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values``."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("percentile() of empty sample")
    return float(np.percentile(arr, q))


def cdf_points(
    values: Iterable[float], probs: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9)
) -> List[Tuple[float, float]]:
    """Sample the empirical CDF of ``values`` at the given probabilities."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cdf_points() of empty sample")
    return [(float(p), float(np.percentile(arr, 100.0 * p))) for p in probs]
