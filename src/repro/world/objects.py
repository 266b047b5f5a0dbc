"""Ambient (non-tag) moving objects that create multipath."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.radio.geometry import PointLike, as_point
from repro.world.motion import Trajectory
from repro.util.rng import SeedLike, make_rng


@dataclass
class AmbientObject:
    """A scatterer in the scene: people, carts, forklifts.

    The reflection coefficient is the one-way field attenuation the object
    imposes on the bounced path (people measure ~0.3-0.6 at UHF).
    """

    trajectory: Trajectory
    reflection_coefficient: float = 0.4
    name: str = "object"

    def __post_init__(self) -> None:
        if not 0.0 <= self.reflection_coefficient <= 1.0:
            raise ValueError("reflection coefficient must be in [0, 1]")


def office_worker(
    region_min: PointLike,
    region_max: PointLike,
    duration_s: float,
    rng: SeedLike = None,
    name: str = "worker",
    n_anchors: int = 4,
) -> AmbientObject:
    """A mostly-seated person who moves among a few habitual spots.

    Office movement is not a uniform random walk: people shuttle between a
    handful of anchor positions (desk, printer, door).  Each anchor yields
    one multipath state per nearby tag, so the state count stays within
    what a K=8 immobility mixture can hold — the reason the paper's 48 h
    office study keeps its false-positive rate low ("the number of
    multipaths are relatively limited").
    """
    from repro.world.motion import WaypointPath

    gen = make_rng(rng)
    lo = as_point(region_min)
    hi = as_point(region_max)
    anchors = [
        np.array([gen.uniform(lo[0], hi[0]), gen.uniform(lo[1], hi[1]), 1.0])
        for _ in range(max(1, n_anchors))
    ]
    speed = 0.9
    t = 0.0
    pos = anchors[0]
    waypoints = [(t, pos)]
    while t < duration_s:
        t += float(gen.exponential(20.0)) + 1e-3  # dwell at the anchor
        waypoints.append((t, pos))
        target = anchors[int(gen.integers(0, len(anchors)))]
        walk_time = float(np.linalg.norm(target - pos)) / speed + 1e-3
        t += walk_time
        waypoints.append((t, target))
        pos = target
    return AmbientObject(
        trajectory=WaypointPath(waypoints),
        reflection_coefficient=0.45,
        name=name,
    )
