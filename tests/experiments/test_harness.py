"""Tests for the shared experiment harness."""

import numpy as np
import pytest

from repro.experiments.harness import (
    build_lab,
    corner_antennas,
    irr_by_tag,
    read_all_irr,
    tag_wall_positions,
)
from repro.radio.measurement import TagObservation


class TestBuilders:
    def test_corner_antennas(self):
        antennas = corner_antennas(half_span_m=3.0)
        assert len(antennas) == 4
        assert all(
            abs(a.position[0]) == 3.0 and abs(a.position[1]) == 3.0
            for a in antennas
        )

    def test_tag_wall(self):
        positions = tag_wall_positions(15, columns=5)
        assert len(positions) == 15
        assert positions[5][1] > positions[0][1]  # second row is deeper

    def test_build_lab_mobile_first(self):
        setup = build_lab(n_tags=10, n_mobile=2, seed=1)
        assert setup.mobile_indices == [0, 1]
        mover, still = (setup.scene.tags[i].trajectory for i in (0, 5))
        assert not np.allclose(mover.position(1.0), mover.position(1.1))
        assert np.allclose(still.position(1.0), still.position(1.1))

    def test_build_lab_rejects_excess_mobile(self):
        with pytest.raises(ValueError):
            build_lab(n_tags=2, n_mobile=3, seed=1)

    def test_partitioned_layout_limits_range(self):
        setup = build_lab(n_tags=16, n_mobile=0, seed=1, partition=True)
        for antenna_index in range(4):
            in_range = setup.scene.tags_in_range(antenna_index, 0.0)
            assert 0 < len(in_range) < 16

    def test_partitioned_covers_every_tag(self):
        setup = build_lab(n_tags=16, n_mobile=2, seed=1, partition=True)
        covered = set()
        for antenna_index in range(4):
            covered |= set(setup.scene.tags_in_range(antenna_index, 0.0))
        assert covered == set(range(16))

    def test_reproducible(self):
        a = build_lab(n_tags=5, n_mobile=1, seed=3)
        b = build_lab(n_tags=5, n_mobile=1, seed=3)
        assert [t.epc.value for t in a.scene.tags] == [
            t.epc.value for t in b.scene.tags
        ]


class TestIrrHelpers:
    def test_irr_by_tag(self):
        setup = build_lab(n_tags=4, n_mobile=0, seed=2, n_antennas=1)
        observations, _ = setup.reader.run_duration(1.0)
        irr = irr_by_tag(observations, 0.0, 1.0)
        assert all(value > 0 for value in irr.values())

    def test_irr_window_validation(self):
        with pytest.raises(ValueError):
            irr_by_tag([], 1.0, 1.0)

    def test_read_all_includes_zero_tags(self):
        setup = build_lab(n_tags=4, n_mobile=0, seed=2, n_antennas=1)
        irr, _ = read_all_irr(setup, duration_s=0.5)
        assert len(irr) == 4
