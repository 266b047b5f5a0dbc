"""Tests for trajectories."""

import numpy as np
import pytest

from repro.world.motion import (
    CircularPath,
    ConveyorPath,
    LinearPath,
    Stationary,
    StepDisplacement,
    TurntablePath,
    WaypointPath,
)


class TestStationary:
    def test_never_moves(self):
        s = Stationary((1, 2, 3))
        assert np.allclose(s.position(0.0), s.position(100.0))

    def test_position_is_copy(self):
        s = Stationary((1, 2, 3))
        s.position(0.0)[0] = 99.0
        assert s.position(0.0)[0] == 1.0


class TestLinearPath:
    def test_velocity_integration(self):
        path = LinearPath((0, 0, 0), (1, 0, 0))
        assert path.position(2.0)[0] == pytest.approx(2.0)

    def test_speed(self):
        path = LinearPath((0, 0, 0), (3, 4, 0))
        step = path.position(1.01) - path.position(1.0)
        assert np.linalg.norm(step) / 0.01 == pytest.approx(5.0, rel=1e-3)


class TestCircularPath:
    def test_stays_on_circle(self):
        path = CircularPath((0, 0, 0.8), radius=0.2, speed=0.7)
        for t in np.linspace(0, 5, 20):
            p = path.position(t)
            assert np.hypot(p[0], p[1]) == pytest.approx(0.2)

    def test_constant_speed(self):
        path = CircularPath((0, 0, 0.8), radius=0.2, speed=0.7)
        step = path.position(1.01) - path.position(1.0)
        assert np.linalg.norm(step) / 0.01 == pytest.approx(0.7, rel=1e-2)

    def test_start_time_hold(self):
        path = CircularPath((0, 0, 0.8), 0.2, 0.7, start_time=2.0)
        assert np.allclose(path.position(0.0), path.position(1.9))
        assert not np.allclose(path.position(3.0), path.position(3.1))

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            CircularPath((0, 0, 0), radius=0.0, speed=1.0)


class TestTurntable:
    def test_period(self):
        path = TurntablePath((0, 0, 0.8), radius=0.25, period_s=2.0)
        assert np.allclose(path.position(0.0), path.position(2.0), atol=1e-9)

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            TurntablePath((0, 0, 0), 0.25, period_s=0.0)


class TestConveyor:
    def test_before_and_after(self):
        path = ConveyorPath((0, 0, 0), (10, 0, 0), speed=1.0, enter_time=5.0)
        assert np.allclose(path.position(0.0), (0, 0, 0))
        assert np.allclose(path.position(100.0), (10, 0, 0))

    def test_midway(self):
        path = ConveyorPath((0, 0, 0), (10, 0, 0), speed=1.0, enter_time=0.0)
        assert path.position(5.0)[0] == pytest.approx(5.0)

    def test_exit_time(self):
        path = ConveyorPath((0, 0, 0), (10, 0, 0), speed=2.0, enter_time=1.0)
        assert path.exit_time == pytest.approx(6.0)

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            ConveyorPath((0, 0, 0), (1, 0, 0), speed=0.0)


class TestStepDisplacement:
    def test_jump_at_step_time(self):
        step = StepDisplacement((0, 0, 0), (0.05, 0, 0), step_time=1.0)
        assert step.position(0.5)[0] == 0.0
        assert step.position(1.5)[0] == pytest.approx(0.05)

    def test_random_direction_magnitude(self):
        step = StepDisplacement.random_direction((0, 0, 0), 0.03, 1.0, rng=4)
        moved = np.linalg.norm(step.after - step.before)
        assert moved == pytest.approx(0.03)

    def test_planar_by_default(self):
        step = StepDisplacement.random_direction((0, 0, 0), 0.03, 1.0, rng=4)
        assert step.after[2] == step.before[2]

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            StepDisplacement.random_direction((0, 0, 0), -0.1, 1.0)


class TestWaypointPath:
    def test_interpolates(self):
        path = WaypointPath([(0.0, (0, 0, 0)), (2.0, (4, 0, 0))])
        assert path.position(1.0)[0] == pytest.approx(2.0)

    def test_clamps_outside(self):
        path = WaypointPath([(1.0, (1, 1, 0)), (2.0, (2, 2, 0))])
        assert np.allclose(path.position(0.0), (1, 1, 0))
        assert np.allclose(path.position(5.0), (2, 2, 0))

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ValueError):
            WaypointPath([(1.0, (0, 0, 0)), (1.0, (1, 0, 0))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WaypointPath([])
