"""Tests for the simulated R420 reader."""

import numpy as np
import pytest

from repro.gen2.epc import random_epc_population
from repro.gen2.select import BitMask, union_selects
from repro.radio.constants import china_920_926, single_channel
from repro.reader.llrp import AISpec, AISpecStopTrigger, ROSpec, C1G2Filter
from repro.reader.reader import SimReader
from repro.world.motion import Stationary
from repro.world.scene import Antenna, Scene, TagInstance


def make_setup(n=6, seed=0, plan=None, antenna_range=8.0):
    epcs = random_epc_population(n, rng=seed + 100)
    tags = [
        TagInstance(epc=e, trajectory=Stationary((0.3 * i, 1.5, 0.8)))
        for i, e in enumerate(epcs)
    ]
    scene = Scene(
        [
            Antenna((0, 0, 1.5), range_m=antenna_range),
            Antenna((3, 0, 1.5), range_m=antenna_range),
        ],
        tags,
        channel_plan=plan or single_channel(),
        seed=seed,
    )
    return SimReader(scene, seed=seed + 1), epcs


class TestInventoryRound:
    def test_reads_all_in_range(self):
        reader, epcs = make_setup()
        result = reader.inventory_round(0)
        assert {o.epc.value for o in result.observations} == {
            e.value for e in epcs
        }

    def test_clock_advances(self):
        reader, _ = make_setup()
        t0 = reader.time_s
        reader.inventory_round(0)
        assert reader.time_s > t0

    def test_select_filters_participants(self):
        reader, epcs = make_setup()
        mask = BitMask.full_epc(epcs[0])
        result = reader.inventory_round(0, union_selects([mask]))
        assert [o.epc.value for o in result.observations] == [epcs[0].value]

    def test_observation_times_within_round(self):
        reader, _ = make_setup()
        t0 = reader.time_s
        result = reader.inventory_round(0)
        for obs in result.observations:
            assert t0 < obs.time_s <= reader.time_s


class TestFrequencyHopping:
    def test_hops_after_dwell(self):
        reader, _ = make_setup(plan=china_920_926(hop_dwell_s=0.05))
        first = reader.inventory_round(0).channel_index
        reader.advance_clock(0.2)
        second = reader.inventory_round(0).channel_index
        assert second != first

    def test_single_channel_never_hops(self):
        reader, _ = make_setup()
        reader.advance_clock(100.0)
        assert reader.inventory_round(0).channel_index == 0

    def test_clock_cannot_go_backwards(self):
        reader, _ = make_setup()
        with pytest.raises(ValueError):
            reader.advance_clock(-1.0)


class TestRunDuration:
    def test_cycles_antennas(self):
        reader, _ = make_setup()
        observations, _ = reader.run_duration(0.5)
        assert {o.antenna_index for o in observations} == {0, 1}

    def test_invalid_duration(self):
        reader, _ = make_setup()
        with pytest.raises(ValueError):
            reader.run_duration(0.0)


class TestExecuteRospec:
    def test_duration_stop(self):
        reader, _ = make_setup()
        rospec = ROSpec(
            rospec_id=1,
            ai_specs=(AISpec((0,), (), AISpecStopTrigger(n_rounds=1)),),
            duration_s=0.4,
        )
        t0 = reader.time_s
        reader.execute_rospec(rospec)
        assert reader.time_s >= t0 + 0.4 - 0.05

    def test_n_rounds_stop(self):
        reader, _ = make_setup()
        rospec = ROSpec(
            rospec_id=1,
            ai_specs=(AISpec((0,), (), AISpecStopTrigger(n_rounds=3)),),
        )
        _, log = reader.execute_rospec(rospec)
        assert log.n_rounds == 3

    def test_filtered_aispec(self):
        reader, epcs = make_setup()
        mask = BitMask.full_epc(epcs[2])
        rospec = ROSpec(
            rospec_id=1,
            ai_specs=(
                AISpec((0,), (C1G2Filter.from_bitmask(mask),)),
            ),
        )
        observations, _ = reader.execute_rospec(rospec)
        assert {o.epc.value for o in observations} == {epcs[2].value}


class TestDeterminism:
    def test_same_seed_same_stream(self):
        r1, _ = make_setup(seed=9)
        r2, _ = make_setup(seed=9)
        o1, _ = r1.run_duration(0.3)
        o2, _ = r2.run_duration(0.3)
        assert [(o.epc.value, o.time_s) for o in o1] == [
            (o.epc.value, o.time_s) for o in o2
        ]


class TestAntennaValidation:
    def test_unknown_antenna_rejected(self):
        reader, _ = make_setup()
        with pytest.raises(ValueError, match="antenna 7"):
            reader.inventory_round(7)

    def test_rospec_with_bad_antenna_rejected(self):
        from repro.reader.llrp import AISpec, AISpecStopTrigger, ROSpec

        reader, _ = make_setup()
        rospec = ROSpec(
            rospec_id=1,
            ai_specs=(AISpec((9,), (), AISpecStopTrigger(n_rounds=1)),),
        )
        with pytest.raises(ValueError):
            reader.execute_rospec(rospec)
