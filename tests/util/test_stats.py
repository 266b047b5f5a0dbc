"""Tests for statistics helpers."""

import numpy as np
import pytest

from repro.util.stats import cdf_points, percentile


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3], 50) == 2.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestCdfPoints:
    def test_default_probs(self):
        points = cdf_points(range(101))
        assert points[2] == (0.5, pytest.approx(50.0))

    def test_custom_probs(self):
        points = cdf_points([1.0, 2.0], probs=(0.5,))
        assert len(points) == 1
