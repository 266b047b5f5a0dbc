"""Trajectory accuracy metrics (Fig 1's cm-level numbers)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.tracking.dah import PositionEstimate
from repro.world.motion import Trajectory


@dataclass(frozen=True)
class TrackAccuracy:
    """Error statistics of a recovered track against ground truth."""

    n_estimates: int
    mean_error_m: float
    std_error_m: float
    median_error_m: float
    p90_error_m: float
    max_error_m: float

    @property
    def mean_error_cm(self) -> float:
        return self.mean_error_m * 100.0


def evaluate_track(
    estimates: Sequence[PositionEstimate],
    truth: Trajectory,
    planar: bool = True,
) -> TrackAccuracy:
    """Compare estimates with the ground-truth trajectory at matching times.

    ``planar`` ignores the z axis (the localiser searches a fixed plane).
    """
    if not estimates:
        raise ValueError("no estimates to evaluate")
    errors: List[float] = []
    for est in estimates:
        true_pos = truth.position(est.time_s)
        delta = est.position - true_pos
        if planar:
            delta = delta[:2]
        errors.append(float(np.linalg.norm(delta)))
    arr = np.asarray(errors)
    return TrackAccuracy(
        n_estimates=len(errors),
        mean_error_m=float(arr.mean()),
        std_error_m=float(arr.std()),
        median_error_m=float(np.percentile(arr, 50)),
        p90_error_m=float(np.percentile(arr, 90)),
        max_error_m=float(arr.max()),
    )
