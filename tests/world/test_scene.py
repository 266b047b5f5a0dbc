"""Tests for the scene container."""

import numpy as np
import pytest

from repro.gen2.epc import random_epc_population
from repro.radio.constants import china_920_926, single_channel
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
