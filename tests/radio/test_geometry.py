"""Tests for the geometry helpers."""

import pytest

from repro.radio.geometry import as_point, distance


class TestAsPoint:
    def test_2d_promoted(self):
        p = as_point((1.0, 2.0))
        assert p.shape == (3,)
        assert p[2] == 0.0

    def test_3d_preserved(self):
        assert list(as_point((1, 2, 3))) == [1.0, 2.0, 3.0]

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            as_point((1.0,))


class TestDistance:
    def test_pythagoras(self):
        assert distance((0, 0, 0), (3, 4, 0)) == 5.0
