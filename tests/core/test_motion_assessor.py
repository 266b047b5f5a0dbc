"""Tests for Phase I motion assessment."""

import numpy as np
import pytest

from repro.core.motion import MotionAssessor
from repro.gen2.epc import random_epc_population
from repro.radio.measurement import TagObservation
from repro.util.circular import TWO_PI


def obs(epc, t, phase, antenna=0, channel=0, rss=-50.0):
    return TagObservation(
        epc=epc,
        time_s=t,
        phase_rad=float(np.mod(phase, TWO_PI)),
        rss_dbm=rss,
        antenna_index=antenna,
        channel_index=channel,
    )


def shard_count(assessor, epc_value):
    """Model shards the assessor keeps for one tag."""
    return sum(1 for key, _ in assessor.shards() if key[0] == epc_value)


@pytest.fixture
def epcs():
    return random_epc_population(3, rng=1)


class TestAssessment:
    def test_stationary_tag_converges(self, epcs):
        rng = np.random.default_rng(0)
        assessor = MotionAssessor()
        for i in range(300):
            assessor.observe(obs(epcs[0], i * 0.02, 1.0 + rng.normal(0, 0.1)))
        assessor.assess()  # close the training cycle
        assessor.observe(obs(epcs[0], 10.0, 1.0))
        verdicts = assessor.assess()
        assert not verdicts[epcs[0].value].moving

    def test_new_tag_starts_moving(self, epcs):
        assessor = MotionAssessor()
        assessor.observe(obs(epcs[0], 0.0, 1.0))
        verdicts = assessor.assess()
        assert verdicts[epcs[0].value].moving

    def test_jump_flags_moving(self, epcs):
        rng = np.random.default_rng(0)
        assessor = MotionAssessor()
        for i in range(300):
            assessor.observe(obs(epcs[0], i * 0.02, 1.0 + rng.normal(0, 0.1)))
        assessor.assess()
        assessor.observe(obs(epcs[0], 10.0, 2.5))
        assert assessor.assess()[epcs[0].value].moving

    def test_any_vote_rule(self, epcs):
        rng = np.random.default_rng(0)
        assessor = MotionAssessor(vote_rule="any")
        for i in range(300):
            assessor.observe(obs(epcs[0], i * 0.02, 1.0 + rng.normal(0, 0.1)))
        assessor.assess()
        assessor.observe(obs(epcs[0], 10.0, 1.0))
        assessor.observe(obs(epcs[0], 10.1, 2.5))  # one bad reading
        assert assessor.assess()[epcs[0].value].moving

    def test_majority_vote_rule(self, epcs):
        rng = np.random.default_rng(0)
        assessor = MotionAssessor(vote_rule="majority")
        for i in range(300):
            assessor.observe(obs(epcs[0], i * 0.02, 1.0 + rng.normal(0, 0.1)))
        assessor.assess()
        assessor.observe(obs(epcs[0], 10.0, 1.0))
        assessor.observe(obs(epcs[0], 10.1, 1.0))
        assessor.observe(obs(epcs[0], 10.2, 2.5))
        assert not assessor.assess()[epcs[0].value].moving

    def test_invalid_vote_rule(self):
        with pytest.raises(ValueError):
            MotionAssessor(vote_rule="plurality")

    def test_assess_clears_cycle(self, epcs):
        assessor = MotionAssessor()
        assessor.observe(obs(epcs[0], 0.0, 1.0))
        assessor.assess()
        assert assessor.assess() == {}


class TestSharding:
    def test_models_keyed_per_antenna(self, epcs):
        assessor = MotionAssessor()
        assessor.observe(obs(epcs[0], 0.0, 1.0, antenna=0))
        assessor.observe(obs(epcs[0], 0.1, 4.0, antenna=1))
        assert shard_count(assessor, epcs[0].value) == 2

    def test_channel_keying_optional(self, epcs):
        keyed = MotionAssessor(key_by_channel=True)
        keyed.observe(obs(epcs[0], 0.0, 1.0, channel=0))
        keyed.observe(obs(epcs[0], 0.1, 1.0, channel=5))
        assert shard_count(keyed, epcs[0].value) == 2

        merged = MotionAssessor(key_by_channel=False)
        merged.observe(obs(epcs[0], 0.0, 1.0, channel=0))
        merged.observe(obs(epcs[0], 0.1, 1.0, channel=5))
        assert shard_count(merged, epcs[0].value) == 1


class TestExpiry:
    def test_stale_tags_dropped(self, epcs):
        assessor = MotionAssessor(expire_after_s=5.0)
        assessor.observe(obs(epcs[0], 0.0, 1.0))
        assessor.observe(obs(epcs[1], 8.0, 1.0))
        dropped = assessor.expire(now_s=10.0)
        assert dropped == 1
        assert epcs[0].value not in assessor._last_seen
        assert epcs[1].value in assessor._last_seen

    def test_no_expiry_when_fresh(self, epcs):
        assessor = MotionAssessor(expire_after_s=5.0)
        assessor.observe(obs(epcs[0], 0.0, 1.0))
        assert assessor.expire(now_s=1.0) == 0
