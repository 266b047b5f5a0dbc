"""Tracking application: differential hologram tracking + accuracy metrics."""

from repro.tracking.dah import DahConfig, DifferentialTracker, PositionEstimate
from repro.tracking.fleet import FleetTracker, TrackedTag
from repro.tracking.trajectory import TrackAccuracy, evaluate_track

__all__ = [
    "DahConfig",
    "DifferentialTracker",
    "FleetTracker",
    "PositionEstimate",
    "TrackAccuracy",
    "TrackedTag",
    "evaluate_track",
]
