"""Tests for EPC encoding and memory banks."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.gen2.epc import (
    EPC,
    MemoryBank,
    TagMemory,
    random_epc_population,
    sequential_epc_population,
)


class TestConstruction:
    def test_value_must_fit(self):
        with pytest.raises(ValueError):
            EPC(4, length=2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EPC(-1, length=8)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            EPC(0, length=0)

    def test_from_bits(self):
        epc = EPC.from_bits("001110")
        assert epc.value == 0b001110
        assert epc.length == 6

    def test_from_bits_rejects_garbage(self):
        with pytest.raises(ValueError):
            EPC.from_bits("012")

    def test_from_hex(self):
        epc = EPC.from_hex("0xff")
        assert epc.value == 255
        assert epc.length == 8

    def test_from_hex_empty_raises(self):
        with pytest.raises(ValueError):
            EPC.from_hex("")


class TestBitAddressing:
    """Gen2 convention: bit 0 is the MSB (paper Fig 9)."""

    def test_bit_zero_is_msb(self):
        epc = EPC.from_bits("100000")
        assert epc.bit_slice(0, 1) == 1
        assert epc.bit_slice(5, 1) == 0

    def test_bit_slice_paper_example(self):
        # Fig 9(a): tag 001110 has bits 4..5 == "10".
        epc = EPC.from_bits("001110")
        assert epc.bit_slice(4, 2) == 0b10

    def test_bit_slice_full(self):
        epc = EPC.from_bits("1011")
        assert epc.bit_slice(0, 4) == 0b1011

    def test_bit_slice_past_end_raises(self):
        with pytest.raises(IndexError):
            EPC.from_bits("1011").bit_slice(3, 2)

    def test_bit_slice_zero_length_raises(self):
        with pytest.raises(ValueError):
            EPC.from_bits("1011").bit_slice(0, 0)


class TestFormatting:
    def test_bits_round_trip(self):
        epc = EPC.from_bits("010110")
        assert epc.to_bits() == "010110"

    def test_hex_padding(self):
        assert EPC(1, 96).to_hex() == "0" * 23 + "1"

    @given(st.integers(min_value=0, max_value=2**96 - 1))
    def test_bits_round_trip_property(self, value):
        epc = EPC(value, 96)
        assert EPC.from_bits(epc.to_bits()) == epc


class TestPopulations:
    def test_random_population_unique(self):
        epcs = random_epc_population(50, rng=1)
        assert len({e.value for e in epcs}) == 50

    def test_random_population_reproducible(self):
        a = random_epc_population(5, rng=2)
        b = random_epc_population(5, rng=2)
        assert [e.value for e in a] == [e.value for e in b]

    def test_negative_size_raises(self):
        with pytest.raises(ValueError):
            random_epc_population(-1)

    @staticmethod
    def _per_epc_population(n, gen, length):
        """One ``EPC.random`` per EPC, skipping duplicates: the batched
        draw's oracle."""
        seen, out = set(), []
        while len(out) < n:
            epc = EPC.random(gen, length)
            if epc.value not in seen:
                seen.add(epc.value)
                out.append(epc)
        return out

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.MT19937, np.random.SFC64,
    ], ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("n,length", [
        (0, 96), (1, 96), (7, 96), (500, 96), (40, 64), (40, 33),
        (200, 8),  # 256 codes: duplicates leave shortfalls to redraw
        (32, 5),  # every code, in first-seen order
    ])
    def test_batched_population_matches_per_epc_draws(
        self, bit_generator, n, length
    ):
        """Same EPCs in the same order, and the generator left in the
        same state (32-bit buffer included), as one draw per EPC."""
        batched = np.random.Generator(bit_generator(11))
        per_epc = np.random.Generator(bit_generator(11))
        batched.integers(0, 2)  # enter with PCG64's 32-bit buffer set
        per_epc.integers(0, 2)
        got = random_epc_population(n, rng=batched, length=length)
        want = self._per_epc_population(n, per_epc, length)
        assert got == want
        assert repr(batched.bit_generator.state) == repr(
            per_epc.bit_generator.state
        )

    def test_sequential(self):
        epcs = sequential_epc_population(3, start=5)
        assert [e.value for e in epcs] == [5, 6, 7]


class TestTagMemory:
    def test_bank_selection(self):
        memory = TagMemory(epc=EPC.from_bits("1010"))
        assert memory.bank(MemoryBank.EPC).value == 0b1010
        assert memory.bank(MemoryBank.TID).value == 0
        assert memory.bank(MemoryBank.USER).value == 0
        assert memory.bank(MemoryBank.RESERVED).value == 0
