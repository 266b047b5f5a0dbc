"""Physical-world simulation: trajectories, ambient movers, and scenes."""

from repro.world.motion import (
    CircularPath,
    ConveyorPath,
    LinearPath,
    Stationary,
    StepDisplacement,
    Trajectory,
    TurntablePath,
    WaypointPath,
)
from repro.world.objects import AmbientObject, office_worker
from repro.world.scene import Antenna, Scene, TagInstance

__all__ = [
    "AmbientObject",
    "Antenna",
    "CircularPath",
    "office_worker",
    "ConveyorPath",
    "LinearPath",
    "Scene",
    "Stationary",
    "StepDisplacement",
    "TagInstance",
    "Trajectory",
    "TurntablePath",
    "WaypointPath",
]
