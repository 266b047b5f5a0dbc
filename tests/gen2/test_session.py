"""Tests for session-flag persistence (S1 burst reading against S0)."""

import pytest

from repro.gen2.epc import random_epc_population
from repro.gen2.session import (
    PERSISTENCE_RANGES_S,
    Session,
    SessionFlagStore,
)
from repro.radio.constants import china_920_926, single_channel
from repro.reader import SessionedReader, SimReader
from repro.world.motion import Stationary
from repro.world.scene import Antenna, Scene, TagInstance


def make_scene(n=6, seed=1, channel_plan=None):
    epcs = random_epc_population(n, rng=seed)
    tags = [
        TagInstance(epc=e, trajectory=Stationary((0.3 * i, 1.2, 0.8)))
        for i, e in enumerate(epcs)
    ]
    return Scene(
        [Antenna((0, 0, 1.5))],
        tags,
        channel_plan=channel_plan or single_channel(),
        seed=seed,
    )


def make_reader(n=6, seed=1):
    return SimReader(make_scene(n, seed), seed=seed + 1)


def make_sessioned(n=6, seed=1, flag_seed=None, channel_plan=None):
    return SessionedReader(
        make_scene(n, seed, channel_plan), flag_seed=flag_seed, seed=seed + 1
    )


class TestFlagStore:
    @pytest.mark.parametrize("session", [Session.S0, Session.S2, Session.S3])
    def test_only_s1_is_modelled(self, session):
        with pytest.raises(ValueError, match="only session S1"):
            SessionFlagStore(session=session, rng_seed=1)

    def test_s1_persists_within_range(self):
        store = SessionFlagStore(session=Session.S1, rng_seed=1)
        persistence = store.persistence_of(5)
        lo, hi = PERSISTENCE_RANGES_S[Session.S1]
        assert lo <= persistence <= hi
        store.mark_read(5, 10.0)
        assert not store.participates(5, 10.0 + persistence / 2)
        assert store.participates(5, 10.0 + persistence + 0.01)

    def test_persistence_stable_per_tag(self):
        store = SessionFlagStore(session=Session.S1, rng_seed=1)
        assert store.persistence_of(3) == store.persistence_of(3)

    def test_filter(self):
        store = SessionFlagStore(session=Session.S1, rng_seed=1)
        store.mark_read(1, 0.0)
        assert store.filter_participants([1, 2], 0.1) == [2]


class TestSessionedReading:
    def test_s1_reads_arrive_in_bursts(self):
        """Under S1 each tag is read ~once per persistence period, however
        long the reader dwells — why Phase II must run S0."""
        observations, log = make_sessioned(flag_seed=2).run_duration(3.0)
        per_tag = {}
        for obs in observations:
            per_tag[obs.epc.value] = per_tag.get(obs.epc.value, 0) + 1
        # 3 s with 0.5-5 s persistence: each tag read a handful of times.
        assert all(1 <= count <= 8 for count in per_tag.values())
        assert log.n_rounds > 10  # most rounds were (nearly) empty

    def test_s0_equivalent_reader_reads_every_round(self):
        reader = make_reader()
        observations, log = reader.run_duration(3.0)
        per_tag = {}
        for obs in observations:
            per_tag[obs.epc.value] = per_tag.get(obs.epc.value, 0) + 1
        # Continuous S0 inventory: tens of reads per tag over 3 s.
        assert all(count > 20 for count in per_tag.values())

    def test_s1_rate_far_below_s0(self):
        s1_obs, _ = make_sessioned(seed=5, flag_seed=6).run_duration(3.0)
        s0_obs, _ = make_reader(seed=5).run_duration(3.0)
        assert len(s1_obs) < len(s0_obs) / 3

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            make_sessioned().run_duration(0.0)

    def test_s1_rounds_hop_channels(self):
        reader = make_sessioned(
            flag_seed=2, channel_plan=china_920_926(hop_dwell_s=0.05)
        )
        observations, _ = reader.run_duration(3.0)
        assert len({obs.channel_index for obs in observations}) > 1

    def test_s1_rounds_respect_their_budget(self):
        full = make_sessioned(n=40, flag_seed=2).inventory_round(0)
        cut = make_sessioned(n=40, flag_seed=2).inventory_round(
            0, max_duration_s=0.03
        )
        assert 0 < len(cut.observations) < len(full.observations)
        assert cut.log.end_time_s < 0.031  # at most one slot past the budget


def test_one_session_enum():
    """The package's Session is the type a Select command carries."""
    import repro.gen2
    import repro.gen2.commands

    assert repro.gen2.Session is repro.gen2.commands.Session
