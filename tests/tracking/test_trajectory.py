"""Tests for track accuracy evaluation."""

import numpy as np
import pytest

from repro.tracking.dah import PositionEstimate
from repro.tracking.trajectory import evaluate_track
from repro.world.motion import Stationary


def estimate(t, position):
    return PositionEstimate(
        time_s=t,
        position=np.asarray(position, dtype=float),
        velocity=np.zeros(3),
        score=1.0,
        n_reads=4,
    )


class TestEvaluateTrack:
    def test_zero_error_for_perfect_track(self):
        truth = Stationary((1.0, 2.0, 0.8))
        estimates = [estimate(t, (1.0, 2.0, 0.8)) for t in (0.0, 1.0)]
        accuracy = evaluate_track(estimates, truth)
        assert accuracy.mean_error_m == 0.0
        assert accuracy.n_estimates == 2

    def test_planar_ignores_z(self):
        truth = Stationary((1.0, 2.0, 0.8))
        estimates = [estimate(0.0, (1.0, 2.0, 5.0))]
        assert evaluate_track(estimates, truth).mean_error_m == 0.0
        assert evaluate_track(
            estimates, truth, planar=False
        ).mean_error_m == pytest.approx(4.2)

    def test_statistics(self):
        truth = Stationary((0.0, 0.0, 0.8))
        estimates = [
            estimate(0.0, (0.01, 0.0, 0.8)),
            estimate(1.0, (0.03, 0.0, 0.8)),
        ]
        accuracy = evaluate_track(estimates, truth)
        assert accuracy.mean_error_m == pytest.approx(0.02)
        assert accuracy.max_error_m == pytest.approx(0.03)
        assert accuracy.mean_error_cm == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_track([], Stationary((0, 0, 0)))
