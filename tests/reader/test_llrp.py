"""Tests for LLRP message structures and XML round-tripping."""

import pytest
from hypothesis import given, strategies as st

from repro.gen2.epc import EPC, MemoryBank
from repro.gen2.select import BitMask, apply_selects
from repro.reader.llrp import (
    AISpec,
    AISpecStopTrigger,
    C1G2Filter,
    ROSpec,
    read_all_rospec,
    rospec_from_xml,
    rospec_to_xml,
)


def sample_rospec():
    return ROSpec(
        rospec_id=3,
        ai_specs=(
            AISpec((1, 2), (C1G2Filter(4, "10"),), AISpecStopTrigger(n_rounds=2)),
            AISpec(
                (0,),
                (C1G2Filter(0, "0101"), C1G2Filter(9, "1")),
                AISpecStopTrigger(n_rounds=3),
            ),
        ),
        duration_s=5.0,
    )


class TestC1G2Filter:
    def test_bitmask_round_trip(self):
        mask = BitMask.from_bits("0110", 5)
        assert C1G2Filter.from_bitmask(mask).to_bitmask() == mask

    def test_bad_mask_rejected(self):
        with pytest.raises(ValueError):
            C1G2Filter(0, "012")

    def test_negative_pointer_rejected(self):
        with pytest.raises(ValueError):
            C1G2Filter(-1, "01")


class TestAISpec:
    def test_needs_antenna(self):
        with pytest.raises(ValueError):
            AISpec((), ())

    def test_selects_union_semantics(self):
        """Multiple filters in one AISpec select the union of coverages."""
        spec = AISpec((0,), (C1G2Filter(0, "00"), C1G2Filter(0, "10")))
        epcs = [EPC.from_bits(b) for b in ("0011", "1011", "1100", "0100")]
        flags = apply_selects(spec.selects(), epcs)
        assert flags == [True, True, False, False]

    def test_no_filters_selects_everything(self):
        spec = AISpec((0,), ())
        epcs = [EPC.from_bits("0011")]
        assert apply_selects(spec.selects(), epcs) == [True]


class TestStopTrigger:
    def test_positive_values(self):
        with pytest.raises(ValueError):
            AISpecStopTrigger(n_rounds=0)


class TestROSpec:
    def test_id_zero_reserved(self):
        with pytest.raises(ValueError):
            ROSpec(0, (AISpec((0,), ()),))

    def test_needs_aispec(self):
        with pytest.raises(ValueError):
            ROSpec(1, ())


class TestXmlRoundTrip:
    def test_full_round_trip(self):
        original = sample_rospec()
        assert rospec_from_xml(rospec_to_xml(original)) == original

    def test_no_duration(self):
        spec = read_all_rospec(1, (0, 1))
        assert rospec_from_xml(rospec_to_xml(spec)) == spec

    def test_rejects_wrong_root(self):
        with pytest.raises(ValueError):
            rospec_from_xml("<NotAROSpec/>")

    def test_xml_mentions_figure_11_fields(self):
        xml = rospec_to_xml(sample_rospec())
        for field in ("AISpec", "C1G2Filter", "C1G2TagInventoryMask"):
            assert field in xml

    @given(
        st.integers(min_value=0, max_value=2**12 - 1),
        st.integers(min_value=0, max_value=80),
    )
    def test_arbitrary_filters_round_trip(self, mask_value, pointer):
        bits = format(mask_value, "012b")
        spec = ROSpec(
            rospec_id=1,
            ai_specs=(AISpec((0,), (C1G2Filter(pointer, bits),)),),
        )
        assert rospec_from_xml(rospec_to_xml(spec)) == spec
