"""Tests for channel plans."""

import pytest

from repro.radio.constants import (
    SPEED_OF_LIGHT,
    ChannelPlan,
    china_920_926,
    single_channel,
    wavelength,
)


class TestWavelength:
    def test_uhf_band(self):
        assert wavelength(920e6) == pytest.approx(0.3258, rel=1e-3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            wavelength(0)


class TestChinaBand:
    def test_sixteen_channels(self):
        plan = china_920_926()
        assert len(plan) == 16

    def test_frequencies_in_band(self):
        plan = china_920_926()
        assert all(920e6 < f < 926e6 for f in plan.frequencies_hz)

    def test_channel_wraps(self):
        plan = china_920_926()
        assert plan.frequency(16) == plan.frequency(0)

    def test_invalid_channel_count(self):
        with pytest.raises(ValueError):
            china_920_926(0)


class TestSingleChannel:
    def test_one_frequency(self):
        plan = single_channel(922e6)
        assert len(plan) == 1


class TestValidation:
    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            ChannelPlan("bad", ())

    def test_bad_dwell_rejected(self):
        with pytest.raises(ValueError):
            ChannelPlan("bad", (920e6,), hop_dwell_s=0)
