"""Tests for the scene container."""

import math

import numpy as np
import pytest

from repro.gen2.epc import random_epc_population
from repro.radio.constants import china_920_926, single_channel
from repro.radio.geometry import distance, squared_distance_xyz
from repro.world.motion import Stationary
from repro.world.objects import AmbientObject, office_worker
from repro.world.scene import Antenna, Scene, TagInstance


def simple_scene(n=3, seed=0, plan=None):
    epcs = random_epc_population(n, rng=1)
    tags = [
        TagInstance(epc=e, trajectory=Stationary((i * 0.5, 1.0, 0.8)))
        for i, e in enumerate(epcs)
    ]
    return (
        Scene(
            [Antenna((0, 0, 1.5)), Antenna((5, 0, 1.5))],
            tags,
            channel_plan=plan or single_channel(),
            seed=seed,
        ),
        epcs,
    )


class TestSceneBasics:
    def test_requires_antenna(self):
        with pytest.raises(ValueError):
            Scene([], [])

    def test_duplicate_epcs_rejected(self):
        epcs = random_epc_population(1, rng=1)
        tags = [
            TagInstance(epc=epcs[0], trajectory=Stationary((0, 1, 0))),
            TagInstance(epc=epcs[0], trajectory=Stationary((1, 1, 0))),
        ]
        with pytest.raises(ValueError):
            Scene([Antenna((0, 0, 1))], tags)

    def test_index_of(self):
        scene, epcs = simple_scene()
        assert scene.index_of(epcs[1]) == 1


class TestRange:
    def test_all_in_range_by_default(self):
        scene, _ = simple_scene()
        assert scene.tags_in_range(0, 0.0) == [0, 1, 2]

    def test_out_of_range_excluded(self):
        epcs = random_epc_population(2, rng=1)
        tags = [
            TagInstance(epc=epcs[0], trajectory=Stationary((1, 0, 0))),
            TagInstance(epc=epcs[1], trajectory=Stationary((100, 0, 0))),
        ]
        scene = Scene([Antenna((0, 0, 0), range_m=5.0)], tags)
        assert scene.tags_in_range(0, 0.0) == [0]

    def test_absent_tag_excluded(self):
        epcs = random_epc_population(1, rng=1)
        tags = [
            TagInstance(
                epc=epcs[0],
                trajectory=Stationary((1, 0, 0)),
                enter_time=10.0,
            )
        ]
        scene = Scene([Antenna((0, 0, 0))], tags)
        assert scene.tags_in_range(0, 0.0) == []
        assert scene.tags_in_range(0, 11.0) == [0]


def _straddling_points(apos, range_m, n=20_000, seed=7):
    """Points about ``range_m`` from ``apos`` on which the plain sum of
    squares and ``distance``'s FMA dot fall on opposite sides of the
    range, split by which side ``distance`` puts them on."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, 3))
    u /= np.sqrt((u * u).sum(axis=1))[:, None]
    points = apos + range_m * u
    delta = apos - points
    plain = np.sqrt((delta * delta).sum(axis=1))
    inside, outside = [], []
    for point, (dx, dy, dz), d_plain in zip(
        points.tolist(), delta.tolist(), plain.tolist()
    ):
        d_fma = math.sqrt(squared_distance_xyz(dx, dy, dz))
        if (d_fma <= range_m) != (d_plain <= range_m):
            (inside if d_fma <= range_m else outside).append(tuple(point))
    return inside, outside


class TestRangeBoundary:
    """The static range check classifies by one vectorised distance and
    rechecks tags in the guard band; it must agree, tag for tag, with
    ``distance(antenna, tag) <= range_m`` on the boundary itself."""

    def _scene(self):
        up, down = math.nextafter(4.0, math.inf), math.nextafter(4.0, 0.0)
        points = [
            (4.0, 0.0, 0.0),  # exactly at range
            (0.0, 0.0, -4.0),
            (up, 0.0, 0.0),  # one ulp outside
            (0.0, -up, 0.0),
            (0.0, down, 0.0),  # one ulp inside
            (-down, 0.0, 0.0),
            (1.0, 1.0, 1.0),
            (9.0, 0.0, 0.0),
        ]
        apos = np.array([1.25, -0.5, 2.0])
        inside, outside = _straddling_points(apos, 3.0)
        # Sharp on both sides: the plain sum misplaces some tags inward
        # and some outward, and only the recheck puts them back.
        assert inside and outside
        points += inside[:5] + outside[:5]
        epcs = random_epc_population(len(points), rng=3)
        tags = [
            TagInstance(epc=e, trajectory=Stationary(p))
            for e, p in zip(epcs, points)
        ]
        antennas = [
            Antenna((0.0, 0.0, 0.0), range_m=4.0),
            Antenna(apos, range_m=3.0),
            Antenna((2.0, 0.0, 0.0), range_m=2.0),
        ]
        return Scene(antennas, tags)

    def test_matches_distance_oracle_on_every_antenna(self):
        scene = self._scene()
        for k, antenna in enumerate(scene.antennas):
            expected = frozenset(
                i
                for i, tag in enumerate(scene.tags)
                if distance(antenna.position, tag.trajectory.position(0.0))
                <= antenna.range_m
            )
            assert scene._static_tags_in_range(k) == expected
            assert scene.tags_in_range(k, 0.0) == sorted(expected)
        assert {0, 1, 4, 5} <= scene._static_tags_in_range(0)
        assert not {2, 3} & scene._static_tags_in_range(0)


class TestObserve:
    def test_observation_fields(self):
        scene, epcs = simple_scene()
        obs = scene.observe(0, 1, 0, 0.5)
        assert obs.epc == epcs[0]
        assert obs.antenna_index == 1
        assert obs.time_s == 0.5
        assert 0 <= obs.phase_rad < 2 * np.pi
        assert obs.rss_dbm < 0

    def test_absent_tag_raises(self):
        epcs = random_epc_population(1, rng=1)
        tags = [
            TagInstance(
                epc=epcs[0], trajectory=Stationary((1, 0, 0)), exit_time=5.0
            )
        ]
        scene = Scene([Antenna((0, 0, 0))], tags)
        with pytest.raises(ValueError):
            scene.observe(0, 0, 0, 6.0)

    def test_lo_offsets_differ_by_channel(self):
        scene, _ = simple_scene(plan=china_920_926())
        assert scene.lo_offset(0, 0) != scene.lo_offset(0, 1)

    def test_lo_offsets_reproducible(self):
        a, _ = simple_scene(seed=5)
        b, _ = simple_scene(seed=5)
        assert a.lo_offset(0, 0) == b.lo_offset(0, 0)


class TestHelpers:
    def test_ambient_objects(self):
        worker = office_worker((-1, -1), (1, 1), 10.0, rng=1)
        assert worker.reflection_coefficient == 0.45
        with pytest.raises(ValueError):
            AmbientObject(Stationary((0, 0, 0)), reflection_coefficient=2.0)
