"""Tests for multi-tag tracking (the paper's footnote 1)."""

import pytest

from repro.gen2.epc import random_epc_population
from repro.radio.constants import single_channel
from repro.reader import SimReader
from repro.tracking import evaluate_track
from repro.tracking.fleet import FleetTracker
from repro.world.motion import CircularPath, Stationary
from repro.world.scene import Antenna, Scene, TagInstance


@pytest.fixture(scope="module")
def two_trains():
    """Two toy trains on separate circular tracks, plus one static tag."""
    epcs = random_epc_population(3, rng=77)
    track_a = CircularPath((1.0, 0.0, 0.8), 0.2, 0.6, start_time=1.0)
    track_b = CircularPath((-1.0, 0.5, 0.8), 0.25, 0.5, start_time=1.0)
    tags = [
        TagInstance(epc=epcs[0], trajectory=track_a, phase_offset_rad=0.5),
        TagInstance(epc=epcs[1], trajectory=track_b, phase_offset_rad=1.5),
        TagInstance(
            epc=epcs[2], trajectory=Stationary((0.0, 2.0, 0.8))
        ),
    ]
    antennas = [
        Antenna((5, 5, 1.5)),
        Antenna((-5, 5, 1.5)),
        Antenna((-5, -5, 1.5)),
        Antenna((5, -5, 1.5)),
    ]
    scene = Scene(antennas, tags, channel_plan=single_channel(), seed=78)
    reader = SimReader(scene, seed=79)
    fleet = FleetTracker(
        [a.position for a in antennas], scene.channel_plan
    )
    calibration, _ = reader.run_duration(1.0)
    fleet.register(epcs[0].value, track_a.position(0.0), calibration)
    fleet.register(epcs[1].value, track_b.position(0.0), calibration)
    observations, _ = reader.run_duration(5.0)
    fleet.feed_all(calibration)
    routed = fleet.feed_all(observations)
    return fleet, epcs, (track_a, track_b), routed, len(observations)


class TestRegistration:
    def test_needs_calibration_readings(self):
        fleet = FleetTracker([(0, 0, 1.5)], single_channel())
        with pytest.raises(ValueError):
            fleet.register(123, (0, 0, 0.8), [])

    def test_tracked_listing(self, two_trains):
        fleet, epcs, _, _, _ = two_trains
        assert fleet.is_tracking(epcs[0].value)
        assert not fleet.is_tracking(epcs[2].value)
        assert len(fleet.tracked_epc_values()) == 2


class TestRouting:
    def test_untracked_observations_rejected(self, two_trains):
        fleet, _, _, routed, total = two_trains
        assert 0 < routed < total  # the static tag's reads were dropped


class TestAccuracy:
    def test_both_trains_tracked_accurately(self, two_trains):
        fleet, epcs, tracks, _, _ = two_trains
        for epc, truth in zip(epcs[:2], tracks):
            estimates = [
                e for e in fleet.estimates(epc.value) if e.time_s > 1.3
            ]
            accuracy = evaluate_track(estimates, truth)
            assert accuracy.mean_error_cm < 4.0

    def test_latest_positions(self, two_trains):
        fleet, epcs, tracks, _, _ = two_trains
        latest = fleet.latest_positions()
        assert set(latest) == {epcs[0].value, epcs[1].value}
        assert all(p is not None for p in latest.values())

    def test_unknown_tag_raises(self, two_trains):
        fleet, _, _, _, _ = two_trains
        with pytest.raises(KeyError):
            fleet.estimates(42)
