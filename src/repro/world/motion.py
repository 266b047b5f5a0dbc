"""Trajectories: position as a function of simulated time.

Each trajectory exposes ``position(t) -> (3,) array``.  The concrete
classes cover every rig the paper's evaluation uses: stationary placement,
the toy train's circular track, a conveyor pass, a spinning turntable,
discrete displacement steps (sensitivity study) and waypoint paths.
"""

from __future__ import annotations

import abc
import bisect
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.radio.geometry import PointLike, as_point
from repro.util.rng import SeedLike, make_rng


class Trajectory(abc.ABC):
    """Position of an object over time."""

    @abc.abstractmethod
    def position(self, t: float) -> np.ndarray:
        """(3,) position at time ``t`` (seconds)."""

    def position_xyz(self, t: float) -> Tuple[float, float, float]:
        """``position(t)`` as plain floats, bit-identical component-wise.

        Hot geometry paths (range checks, direct-path distances) use this
        to stay scalar; subclasses whose arithmetic is expressible with
        scalar libm calls override it without the array construction.
        """
        x, y, z = self.position(t).tolist()
        return x, y, z

    def distance_bounds(
        self, point: PointLike
    ) -> Optional[Tuple[float, float]]:
        """Conservative ``(min, max)`` distance from ``point`` to any
        position this trajectory can ever occupy, or ``None`` if unbounded.

        Used to constant-fold per-round antenna range checks: a trajectory
        whose maximum distance is safely inside (or minimum safely outside)
        an antenna's range never needs a per-``t`` position evaluation.
        Bounds need not be tight — only sound — so subclasses may return
        ``0.0`` as the lower bound when the true minimum is awkward.
        """
        return None


class Stationary(Trajectory):
    """An object that never moves."""

    def __init__(self, position: PointLike) -> None:
        self._position = as_point(position)

    @classmethod
    def of_rows(cls, points: np.ndarray) -> List["Stationary"]:
        """One stationary object per row of a float ``(n, 3)`` array.

        Each holds a view of its row, as ``Stationary(points[i])`` would,
        without a per-object ``as_point``; the caller hands the array over
        and must not write it.
        """
        new = cls.__new__
        out = []
        for row in points:
            obj = new(cls)
            obj._position = row
            out.append(obj)
        return out

    @property
    def point(self) -> np.ndarray:
        """The position itself, not a copy: callers must not write it."""
        return self._position

    def position(self, t: float) -> np.ndarray:
        return self._position.copy()

    def position_xyz(self, t: float) -> Tuple[float, float, float]:
        x, y, z = self._position.tolist()
        return x, y, z

    def distance_bounds(self, point: PointLike) -> Tuple[float, float]:
        d = float(np.linalg.norm(as_point(point) - self._position))
        return d, d


class LinearPath(Trajectory):
    """Constant-velocity motion starting at ``start`` at time ``t0``."""

    def __init__(
        self, start: PointLike, velocity: PointLike, t0: float = 0.0
    ) -> None:
        self.start = as_point(start)
        self.velocity = as_point(velocity)
        self.t0 = t0

    def position(self, t: float) -> np.ndarray:
        return self.start + self.velocity * (t - self.t0)

    def position_xyz(self, t: float) -> Tuple[float, float, float]:
        dt = t - self.t0
        sx, sy, sz = self.start.tolist()
        vx, vy, vz = self.velocity.tolist()
        return sx + vx * dt, sy + vy * dt, sz + vz * dt


class CircularPath(Trajectory):
    """The toy train: constant speed around a circle of given radius."""

    def __init__(
        self,
        center: PointLike,
        radius: float,
        speed: float,
        phase0: float = 0.0,
        z: Optional[float] = None,
        start_time: float = 0.0,
    ) -> None:
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.center = as_point(center)
        if z is not None:
            self.center[2] = z
        self.radius = radius
        self.speed = speed
        self.phase0 = phase0
        #: The train sits at its starting point until ``start_time`` — a
        #: calibration hold for trackers that fix the initial position.
        self.start_time = start_time

    def position(self, t: float) -> np.ndarray:
        return np.array(self.position_xyz(t))

    def position_xyz(self, t: float) -> Tuple[float, float, float]:
        elapsed = max(0.0, t - self.start_time)
        angle = self.phase0 + self.speed * elapsed / self.radius
        # Scalar libm cos/sin round identically to the numpy ufuncs for
        # every finite double (machine-checked in the test suite), so each
        # component is the exact sum the vectorised form would produce.
        cx, cy, cz = self.center.tolist()
        return (
            cx + self.radius * math.cos(angle),
            cy + self.radius * math.sin(angle),
            cz + 0.0,
        )

    def distance_bounds(self, point: PointLike) -> Tuple[float, float]:
        # Every reachable position lies on the circle, so the distance from
        # ``point`` ranges over [hypot(|rho - r|, dz), hypot(rho + r, dz)]
        # with rho the horizontal point-to-centre distance.
        px, py, pz = as_point(point).tolist()
        cx, cy, cz = self.center.tolist()
        rho = math.hypot(px - cx, py - cy)
        dz = pz - cz
        return (
            math.hypot(abs(rho - self.radius), dz),
            math.hypot(rho + self.radius, dz),
        )


class TurntablePath(CircularPath):
    """A tag on a spinning turntable (Fig 18's mobile-tag rig)."""

    def __init__(
        self,
        center: PointLike,
        radius: float,
        period_s: float,
        phase0: float = 0.0,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period must be positive")
        speed = 2.0 * np.pi * radius / period_s
        super().__init__(center, radius, speed, phase0)
        self.period_s = period_s


class ConveyorPath(Trajectory):
    """A package conveyed from ``start`` to ``end`` during a time window.

    Before ``enter_time`` the object sits at ``start``; after arriving it
    stays at ``end`` (sorted and parked).
    """

    def __init__(
        self,
        start: PointLike,
        end: PointLike,
        speed: float,
        enter_time: float = 0.0,
    ) -> None:
        if speed <= 0:
            raise ValueError("conveyor speed must be positive")
        self.start = as_point(start)
        self.end = as_point(end)
        self.speed = speed
        self.enter_time = enter_time
        self.travel_time = float(np.linalg.norm(self.end - self.start)) / speed

    @property
    def exit_time(self) -> float:
        return self.enter_time + self.travel_time

    def position(self, t: float) -> np.ndarray:
        if t <= self.enter_time:
            return self.start.copy()
        if t >= self.exit_time:
            return self.end.copy()
        frac = (t - self.enter_time) / self.travel_time
        return self.start + (self.end - self.start) * frac

    def distance_bounds(self, point: PointLike) -> Tuple[float, float]:
        # Distance along a straight segment is convex: max at an endpoint.
        p = as_point(point)
        hi = max(
            float(np.linalg.norm(p - self.start)),
            float(np.linalg.norm(p - self.end)),
        )
        return 0.0, hi


class StepDisplacement(Trajectory):
    """Stationary, then an instantaneous displacement at ``step_time``.

    Reproduces the Fig 13 sensitivity rig: "move a tag away in a random
    direction with a displacement ranging from 1 cm to 5 cm".
    """

    def __init__(
        self, position: PointLike, displacement: PointLike, step_time: float
    ) -> None:
        self.before = as_point(position)
        self.after = self.before + as_point(displacement)
        self.step_time = step_time

    @classmethod
    def random_direction(
        cls,
        position: PointLike,
        magnitude_m: float,
        step_time: float,
        rng: SeedLike = None,
        planar: bool = True,
    ) -> "StepDisplacement":
        """Displacement of ``magnitude_m`` in a uniformly random direction."""
        if magnitude_m < 0:
            raise ValueError("displacement magnitude must be non-negative")
        gen = make_rng(rng)
        if planar:
            angle = gen.uniform(0.0, 2.0 * np.pi)
            direction = np.array([np.cos(angle), np.sin(angle), 0.0])
        else:
            vec = gen.normal(size=3)
            direction = vec / np.linalg.norm(vec)
        return cls(position, direction * magnitude_m, step_time)

    def position(self, t: float) -> np.ndarray:
        return (self.after if t >= self.step_time else self.before).copy()

    def distance_bounds(self, point: PointLike) -> Tuple[float, float]:
        p = as_point(point)
        d0 = float(np.linalg.norm(p - self.before))
        d1 = float(np.linalg.norm(p - self.after))
        return min(d0, d1), max(d0, d1)


class WaypointPath(Trajectory):
    """Piecewise-linear interpolation through timestamped waypoints."""

    def __init__(self, waypoints: Sequence[Tuple[float, PointLike]]) -> None:
        if len(waypoints) < 1:
            raise ValueError("need at least one waypoint")
        times = [float(t) for t, _ in waypoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("waypoint times must be strictly increasing")
        self.times = times
        self.points = [as_point(p) for _, p in waypoints]

    def position(self, t: float) -> np.ndarray:
        if t <= self.times[0]:
            return self.points[0].copy()
        if t >= self.times[-1]:
            return self.points[-1].copy()
        idx = bisect.bisect_right(self.times, t) - 1
        t0, t1 = self.times[idx], self.times[idx + 1]
        frac = (t - t0) / (t1 - t0)
        return self.points[idx] + (self.points[idx + 1] - self.points[idx]) * frac

    def distance_bounds(self, point: PointLike) -> Tuple[float, float]:
        # Piecewise-linear: per-segment maxima sit at the waypoints.
        p = as_point(point)
        hi = max(float(np.linalg.norm(p - q)) for q in self.points)
        return 0.0, hi
