"""Tests for circular statistics (the paper's phase-jump fix)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.circular import (
    TWO_PI,
    circular_distance,
    circular_signed_difference,
    circular_std,
    wrap_phase,
)

angles = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


class TestWrapPhase:
    def test_wraps_into_range(self):
        assert 0 <= wrap_phase(7.0) < TWO_PI
        assert 0 <= wrap_phase(-1.0) < TWO_PI

    def test_identity_in_range(self):
        assert wrap_phase(1.5) == pytest.approx(1.5)


class TestCircularDistance:
    def test_paper_phase_jump_example(self):
        # Section 4.3: measured 2*pi - 0.01 vs expected 0.02 -> 0.03, not 6.25.
        assert circular_distance(TWO_PI - 0.01, 0.02) == pytest.approx(0.03)

    def test_zero_for_equal(self):
        assert circular_distance(1.0, 1.0) == 0.0

    def test_max_is_pi(self):
        assert circular_distance(0.0, np.pi) == pytest.approx(np.pi)

    def test_array_input(self):
        d = circular_distance(np.array([0.0, 1.0]), np.array([0.1, 1.2]))
        assert d == pytest.approx([0.1, 0.2])

    @given(angles, angles)
    def test_symmetric(self, a, b):
        assert circular_distance(a, b) == pytest.approx(
            circular_distance(b, a), abs=1e-9
        )

    @given(angles, angles)
    def test_range(self, a, b):
        d = circular_distance(a, b)
        assert -1e-12 <= d <= np.pi + 1e-9

    @given(angles, angles)
    def test_shift_invariant(self, a, b):
        d1 = circular_distance(a, b)
        d2 = circular_distance(a + TWO_PI, b)
        assert d1 == pytest.approx(d2, abs=1e-6)


class TestSignedDifference:
    def test_small_positive(self):
        assert circular_signed_difference(0.3, 0.1) == pytest.approx(0.2)

    def test_wraps_negative(self):
        assert circular_signed_difference(0.1, TWO_PI - 0.1) == pytest.approx(0.2)

    @given(angles, angles)
    def test_magnitude_matches_distance(self, a, b):
        assert abs(circular_signed_difference(a, b)) == pytest.approx(
            circular_distance(a, b), abs=1e-6
        )


class TestCircularStd:
    def test_concentrated_small(self):
        rng = np.random.default_rng(0)
        samples = np.mod(1.0 + rng.normal(0, 0.05, 500), TWO_PI)
        assert circular_std(samples) == pytest.approx(0.05, rel=0.2)

    def test_across_wrap_still_small(self):
        rng = np.random.default_rng(0)
        samples = np.mod(rng.normal(0, 0.05, 500), TWO_PI)
        assert circular_std(samples) < 0.1

    def test_uniform_large(self):
        rng = np.random.default_rng(0)
        assert circular_std(rng.uniform(0, TWO_PI, 2000)) > 1.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            circular_std(np.array([]))
