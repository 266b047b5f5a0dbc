"""Tests for the sllurp-style LLRP client."""

import pytest

from repro.gen2.epc import random_epc_population
from repro.radio.constants import single_channel
from repro.reader.client import LLRPClient, LLRPError, ReaderState
from repro.reader.llrp import read_all_rospec
from repro.reader.reader import SimReader
from repro.world.motion import Stationary
from repro.world.scene import Antenna, Scene, TagInstance


@pytest.fixture
def client():
    epcs = random_epc_population(3, rng=1)
    tags = [
        TagInstance(epc=e, trajectory=Stationary((0.3 * i, 1.0, 0.8)))
        for i, e in enumerate(epcs)
    ]
    scene = Scene(
        [Antenna((0, 0, 1.5))], tags, channel_plan=single_channel(), seed=2
    )
    return LLRPClient(SimReader(scene, seed=3))


class TestConnectionState:
    def test_initially_disconnected(self, client):
        assert client.state == ReaderState.DISCONNECTED

    def test_double_connect_rejected(self, client):
        client.connect()
        with pytest.raises(LLRPError):
            client.connect()

    def test_operations_require_connection(self, client):
        with pytest.raises(LLRPError):
            client.add_rospec(read_all_rospec(1, (0,)))


class TestROSpecLifecycle:
    def test_full_flow(self, client):
        client.connect()
        spec = read_all_rospec(1, (0,))
        client.add_rospec(spec)
        client.enable_rospec(1)
        reports, log = client.start_rospec(1)
        assert len(reports) == 3
        assert log.n_rounds == 1

    def test_duplicate_add_rejected(self, client):
        client.connect()
        client.add_rospec(read_all_rospec(1, (0,)))
        with pytest.raises(LLRPError):
            client.add_rospec(read_all_rospec(1, (0,)))

    def test_start_requires_enable(self, client):
        client.connect()
        client.add_rospec(read_all_rospec(1, (0,)))
        with pytest.raises(LLRPError):
            client.start_rospec(1)

    def test_unknown_rospec(self, client):
        client.connect()
        with pytest.raises(LLRPError):
            client.enable_rospec(99)

    def test_delete_removes(self, client):
        client.connect()
        client.add_rospec(read_all_rospec(1, (0,)))
        client.delete_rospec(1)
        assert client.rospec_ids() == []

