"""Tests for TID-bank contents and manufacturer-targeted Select."""

import pytest

from repro.gen2.epc import EPC, MemoryBank, TagMemory, random_epc_population
from repro.gen2.select import apply_selects, matches
from repro.gen2.tid import (
    MDID_ALIEN,
    MDID_IMPINJ,
    decode_mdid,
    make_tid,
    select_manufacturer,
    tagged_memory,
)
from repro.radio.constants import single_channel
from repro.reader import SimReader
from repro.world.motion import Stationary
from repro.world.scene import Antenna, Scene, TagInstance


class TestTidLayout:
    def test_class_identifier(self):
        tid = make_tid(MDID_ALIEN, 0x412, serial=7)
        assert tid.bit_slice(0, 8) == 0xE2

    def test_decode_mdid(self):
        tid = make_tid(MDID_IMPINJ, 0x10C)
        assert decode_mdid(tid) == MDID_IMPINJ

    def test_decode_rejects_non_tid(self):
        with pytest.raises(ValueError):
            decode_mdid(EPC(0, 64))

    def test_field_bounds(self):
        with pytest.raises(ValueError):
            make_tid(1 << 12, 0)
        with pytest.raises(ValueError):
            make_tid(0, 1 << 12)
        with pytest.raises(ValueError):
            make_tid(0, 0, serial=1 << 32)

    def test_select_manufacturer_bounds(self):
        with pytest.raises(ValueError):
            select_manufacturer(1 << 12)


class TestManufacturerSelect:
    def test_matches_only_the_vendor(self):
        epcs = random_epc_population(2, rng=1)
        alien = tagged_memory(epcs[0], mdid=MDID_ALIEN)
        impinj = tagged_memory(epcs[1], mdid=MDID_IMPINJ)
        select = select_manufacturer(MDID_ALIEN)
        assert matches(select, alien)
        assert not matches(select, impinj)

    def test_bare_epc_has_zero_tid(self):
        """Bare EPCs keep the old semantics: TID bank defaults to zeros."""
        epcs = random_epc_population(1, rng=1)
        assert not matches(select_manufacturer(MDID_ALIEN), epcs[0])

    def test_apply_selects_with_memories(self):
        epcs = random_epc_population(4, rng=2)
        memories = [
            tagged_memory(epcs[0], mdid=MDID_ALIEN),
            tagged_memory(epcs[1], mdid=MDID_ALIEN),
            tagged_memory(epcs[2], mdid=MDID_IMPINJ),
            tagged_memory(epcs[3], mdid=MDID_IMPINJ),
        ]
        flags = apply_selects([select_manufacturer(MDID_IMPINJ)], memories)
        assert flags == [False, False, True, True]

    def test_memory_epc_consistency_enforced(self):
        epcs = random_epc_population(2, rng=5)
        with pytest.raises(ValueError):
            TagInstance(
                epc=epcs[0],
                trajectory=Stationary((0, 1, 0.8)),
                memory=tagged_memory(epcs[1]),
            )


class TestVendorFilteredInventory:
    def test_reader_reads_only_selected_vendor(self):
        epcs = random_epc_population(6, rng=6)
        tags = []
        for i, epc in enumerate(epcs):
            mdid = MDID_ALIEN if i < 3 else MDID_IMPINJ
            tags.append(
                TagInstance(
                    epc=epc,
                    trajectory=Stationary((0.3 * i, 1.2, 0.8)),
                    memory=tagged_memory(epc, mdid=mdid, serial=i),
                )
            )
        scene = Scene(
            [Antenna((0, 0, 1.5))], tags,
            channel_plan=single_channel(), seed=7,
        )
        reader = SimReader(scene, seed=8)
        result = reader.inventory_round(
            0, selects=[select_manufacturer(MDID_ALIEN)]
        )
        read_values = {obs.epc.value for obs in result.observations}
        assert read_values == {e.value for e in epcs[:3]}
