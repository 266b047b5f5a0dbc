"""Tests for the reading-history database."""

import pytest

from repro.core.history import IrrSample, ReadingHistory
from repro.gen2.epc import random_epc_population
from repro.radio.measurement import TagObservation


def obs(epc, t):
    return TagObservation(
        epc=epc,
        time_s=t,
        phase_rad=1.0,
        rss_dbm=-50.0,
        antenna_index=0,
        channel_index=0,
    )


@pytest.fixture
def epcs():
    return random_epc_population(2, rng=1)


class TestStorage:
    def test_counts(self, epcs):
        history = ReadingHistory()
        history.add(obs(epcs[0], 0.0))
        history.add(obs(epcs[0], 0.1))
        history.add(obs(epcs[1], 0.2))
        assert history.count(epcs[0].value) == 2
        assert history.total_reads == 3

    def test_unknown_tag_zero(self, epcs):
        history = ReadingHistory()
        assert history.count(epcs[0].value) == 0
        assert history.last_seen(epcs[0].value) is None

    def test_trim_to_max(self, epcs):
        history = ReadingHistory(max_per_tag=2)
        for t in (0.0, 0.1, 0.2, 0.3):
            history.add(obs(epcs[0], t))
        stored = history.observations(epcs[0].value)
        assert [o.time_s for o in stored] == [0.2, 0.3]

    def test_invalid_max(self):
        with pytest.raises(ValueError):
            ReadingHistory(max_per_tag=0)

    def test_clear(self, epcs):
        history = ReadingHistory()
        history.add(obs(epcs[0], 0.0))
        history.clear()
        assert history.total_reads == 0


class TestIrr:
    def test_irr_computation(self, epcs):
        history = ReadingHistory()
        for t in (0.0, 0.5, 1.0, 1.5):
            history.add(obs(epcs[0], t))
        sample = history.irr(epcs[0].value, 0.0, 2.0)
        assert sample.n_reads == 4
        assert sample.irr_hz == pytest.approx(2.0)

    def test_window_half_open(self, epcs):
        history = ReadingHistory()
        history.add(obs(epcs[0], 1.0))
        assert history.irr(epcs[0].value, 0.0, 1.0).n_reads == 0
        assert history.irr(epcs[0].value, 1.0, 2.0).n_reads == 1

    def test_invalid_window(self, epcs):
        history = ReadingHistory()
        with pytest.raises(ValueError):
            history.reads_in_window(epcs[0].value, 2.0, 1.0)

    def test_zero_interval_rejected(self):
        with pytest.raises(ValueError):
            IrrSample(epc_value=1, n_reads=3, interval_s=0.0).irr_hz
