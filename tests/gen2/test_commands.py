"""Tests for Gen2 command messages."""

import pytest

from repro.gen2.commands import Select
from repro.gen2.epc import EPC, MemoryBank
from repro.gen2.select import matches


class TestSelect:
    def test_mask_must_fit(self):
        with pytest.raises(ValueError):
            Select(MemoryBank.EPC, 0, 2, mask=4)

    def test_negative_pointer_rejected(self):
        with pytest.raises(ValueError):
            Select(MemoryBank.EPC, -1, 2, mask=1)

    def test_mask_bits(self):
        s = Select(MemoryBank.EPC, 0, 4, mask=0b0101)
        assert s.mask_bits() == "0101"

    def test_zero_length_mask_bits(self):
        assert Select(MemoryBank.EPC, 0, 0, mask=0).mask_bits() == ""


class TestSelectAll:
    def test_matches_any_epc(self):
        s = Select(MemoryBank.EPC, 0, 0, mask=0)  # zero-length mask
        assert matches(s, EPC.from_bits("1010"))
        assert matches(s, EPC.from_bits("0101"))
