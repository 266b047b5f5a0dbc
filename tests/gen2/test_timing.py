"""Tests for the Gen2 link timing profile."""

import pytest

from repro.gen2.timing import R420_PROFILE, LinkTiming


class TestDurations:
    def test_slot_ordering(self):
        t = R420_PROFILE
        assert t.empty_slot_duration < t.collision_slot_duration
        assert t.collision_slot_duration < t.success_slot_duration

    def test_startup_cost_near_paper(self):
        # The paper fits tau_0 = 19 ms on the R420.
        assert 0.015 < R420_PROFILE.startup_cost < 0.025

    def test_mean_slot_sub_millisecond(self):
        # The paper fits tau_bar = 0.18 ms; the derived profile is close.
        assert 0.0001 < R420_PROFILE.mean_slot_duration() < 0.0005

    def test_mean_slot_probability_check(self):
        with pytest.raises(ValueError):
            R420_PROFILE.mean_slot_duration(0.5, 0.5, 0.5)

    def test_select_longer_than_query(self):
        assert R420_PROFILE.select_duration > R420_PROFILE.query_duration

    def test_all_durations_positive(self):
        t = R420_PROFILE
        for value in (
            t.query_duration,
            t.query_rep_duration,
            t.query_adjust_duration,
            t.ack_duration,
            t.select_duration,
            t.rn16_duration,
            t.epc_reply_duration,
        ):
            assert value > 0

    def test_custom_profile_scales(self):
        slow = LinkTiming(blf_hz=160e3)
        assert slow.rn16_duration > R420_PROFILE.rn16_duration
