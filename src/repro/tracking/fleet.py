"""Tracking several mobile tags at once (the paper's footnote 1).

"Despite a single moving tag shown in the example, our system can deal with
the case where multiple mobile objects present."  This module makes that
concrete: a :class:`FleetTracker` owns one differential tracker per tag,
routes an observation stream (e.g. a Tagwatch subscription) by EPC, and
exposes per-tag trajectories.

Per-tag calibration follows the same recipe as the single-tag case: each
tag must rest at a known position while its offsets are learned (in a real
deployment, items start on known shelf slots).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.radio.constants import ChannelPlan
from repro.radio.geometry import PointLike, as_point
from repro.radio.measurement import TagObservation
from repro.tracking.dah import DahConfig, DifferentialTracker, PositionEstimate


@dataclass
class TrackedTag:
    """Book-keeping for one tag under fleet tracking."""

    epc_value: int
    tracker: DifferentialTracker
    home_position: np.ndarray
    observations: List[TagObservation] = field(default_factory=list)

    def estimates(self) -> List[PositionEstimate]:
        """(Re-)run the tracker over everything collected so far."""
        return self.tracker.track(self.observations, self.home_position)


class FleetTracker:
    """Track any number of tags from one mixed observation stream."""

    def __init__(
        self,
        antenna_positions: Sequence[PointLike],
        channel_plan: ChannelPlan,
        config: DahConfig = DahConfig(),
    ) -> None:
        self.antenna_positions = [as_point(p) for p in antenna_positions]
        self.channel_plan = channel_plan
        self.config = config
        self._tags: Dict[int, TrackedTag] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        epc_value: int,
        home_position: PointLike,
        calibration: Sequence[TagObservation],
    ) -> None:
        """Start tracking a tag resting at ``home_position``.

        ``calibration`` must contain readings of *this* tag taken while it
        rested there (readings of other tags are ignored).
        """
        own = [obs for obs in calibration if obs.epc.value == epc_value]
        if not own:
            raise ValueError(
                f"no calibration readings for EPC value {epc_value:#x}"
            )
        tracker = DifferentialTracker(
            self.antenna_positions, self.channel_plan, self.config
        )
        tracker.calibrate(own, home_position)
        self._tags[epc_value] = TrackedTag(
            epc_value=epc_value,
            tracker=tracker,
            home_position=as_point(home_position),
        )

    def is_tracking(self, epc_value: int) -> bool:
        """Whether this tag has been registered."""
        return epc_value in self._tags

    def tracked_epc_values(self) -> List[int]:
        """All registered tags."""
        return sorted(self._tags)

    # ------------------------------------------------------------------
    def feed(self, obs: TagObservation) -> bool:
        """Route one observation; returns False for unregistered tags."""
        tag = self._tags.get(obs.epc.value)
        if tag is None:
            return False
        tag.observations.append(obs)
        return True

    def feed_all(self, observations: Sequence[TagObservation]) -> int:
        """Route a batch; returns how many were for tracked tags."""
        return sum(1 for obs in observations if self.feed(obs))

    # ------------------------------------------------------------------
    def estimates(self, epc_value: int) -> List[PositionEstimate]:
        """Trajectory estimates for one tag; raises if unregistered."""
        if epc_value not in self._tags:
            raise KeyError(f"EPC value {epc_value:#x} is not tracked")
        return self._tags[epc_value].estimates()

    def latest_positions(self) -> Dict[int, Optional[np.ndarray]]:
        """The newest fix per tag (None where no fix exists yet)."""
        out: Dict[int, Optional[np.ndarray]] = {}
        for epc_value, tag in self._tags.items():
            estimates = tag.estimates()
            out[epc_value] = estimates[-1].position if estimates else None
        return out
