"""Tests for Select over the TID bank (manufacturer targeting).

Every Gen2 tag's TID bank opens with the class identifier 0xE2, then a
12-bit mask-designer ID (MDID) and a 12-bit tag model number; a Select on
bits 8..19 of that bank targets one manufacturer regardless of EPC.
"""

import pytest

from repro.gen2.commands import Select, SelectAction, SelectTarget
from repro.gen2.epc import EPC, MemoryBank, TagMemory, random_epc_population
from repro.gen2.select import apply_selects, matches
from repro.radio.constants import single_channel
from repro.reader import SimReader
from repro.world.motion import Stationary
from repro.world.scene import Antenna, Scene, TagInstance

MDID_IMPINJ = 0x001
MDID_ALIEN = 0x003


def tid_memory(epc: EPC, mdid: int, serial: int = 0) -> TagMemory:
    """Tag memory with a 64-bit serialized TID: 0xE2 | MDID | model | serial."""
    tid = (((0xE2 << 12) | mdid) << 12 | 0x412) << 32 | serial
    return TagMemory(epc=epc, tid=EPC(tid, 64))


def select_manufacturer(mdid: int) -> Select:
    return Select(
        membank=MemoryBank.TID,
        pointer=8,
        length=12,
        mask=mdid,
        target=SelectTarget.SL,
        action=SelectAction.ASSERT_DEASSERT,
    )


class TestManufacturerSelect:
    def test_matches_only_the_vendor(self):
        epcs = random_epc_population(2, rng=1)
        alien = tid_memory(epcs[0], mdid=MDID_ALIEN)
        impinj = tid_memory(epcs[1], mdid=MDID_IMPINJ)
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
            tid_memory(epcs[0], mdid=MDID_ALIEN),
            tid_memory(epcs[1], mdid=MDID_ALIEN),
            tid_memory(epcs[2], mdid=MDID_IMPINJ),
            tid_memory(epcs[3], mdid=MDID_IMPINJ),
        ]
        flags = apply_selects([select_manufacturer(MDID_IMPINJ)], memories)
        assert flags == [False, False, True, True]

    def test_memory_epc_consistency_enforced(self):
        epcs = random_epc_population(2, rng=5)
        with pytest.raises(ValueError):
            TagInstance(
                epc=epcs[0],
                trajectory=Stationary((0, 1, 0.8)),
                memory=tid_memory(epcs[1], mdid=MDID_ALIEN),
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
                    memory=tid_memory(epc, mdid=mdid, serial=i),
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
