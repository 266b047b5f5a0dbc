"""Tests for the multipath backscatter channel."""

import numpy as np
import pytest

from repro.radio.channel import (
    Reflector,
    backscatter_gain,
    one_way_gain,
    path_loss_amplitude,
)
from repro.radio.constants import wavelength

FREQ = 922e6


class TestPathLoss:
    def test_monotonic_decreasing(self):
        lam = wavelength(FREQ)
        assert path_loss_amplitude(1.0, lam) > path_loss_amplitude(2.0, lam)

    def test_clamped_near_zero(self):
        lam = wavelength(FREQ)
        assert path_loss_amplitude(0.0, lam) == path_loss_amplitude(
            lam / 2, lam
        )


class TestBackscatterGain:
    def test_round_trip_phase(self):
        """The monostatic phase is -4*pi*d/lambda (twice the one-way)."""
        lam = wavelength(FREQ)
        d = 2.3
        gain = backscatter_gain((0, 0, 0), (d, 0, 0), FREQ)
        expected = np.mod(-4 * np.pi * d / lam, 2 * np.pi)
        assert np.mod(np.angle(gain), 2 * np.pi) == pytest.approx(
            expected, abs=1e-6
        )

    def test_magnitude_is_one_way_squared(self):
        g = one_way_gain((0, 0, 0), (2, 0, 0), FREQ)
        h = backscatter_gain((0, 0, 0), (2, 0, 0), FREQ)
        assert abs(h) == pytest.approx(abs(g) ** 2)

    def test_reflector_changes_phase(self):
        clean = backscatter_gain((0, 0, 0), (3, 0, 0), FREQ)
        dirty = backscatter_gain(
            (0, 0, 0),
            (3, 0, 0),
            FREQ,
            (Reflector((1.5, 0.5, 0), 0.5),),
        )
        assert np.angle(clean) != pytest.approx(np.angle(dirty), abs=1e-3)

    def test_one_cm_displacement_moves_phase(self):
        """The paper's 'natural amplifier': 1 cm -> ~0.39 rad round trip."""
        lam = wavelength(FREQ)
        g1 = backscatter_gain((0, 0, 0), (2.0, 0, 0), FREQ)
        g2 = backscatter_gain((0, 0, 0), (2.01, 0, 0), FREQ)
        delta = np.angle(g2 / g1)
        assert abs(delta) == pytest.approx(4 * np.pi * 0.01 / lam, rel=1e-3)


class TestReflector:
    def test_coefficient_bounds(self):
        with pytest.raises(ValueError):
            Reflector((0, 0, 0), coefficient=1.5)
