"""Tests for SGTIN-96 encoding and warehouse populations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gen2.sgtin import (
    PARTITION_TABLE,
    SGTIN96_HEADER,
    ProductLine,
    Sgtin96,
    warehouse_population,
)
from repro.gen2.epc import EPC
from repro.gen2.select import BitMask

#: Bits every tag of one SKU shares at partition 5: header (8), filter (3),
#: partition (3), company prefix (24) and item reference (20).
SKU_PREFIX_BITS = 58


class TestEncodeDecode:
    def test_round_trip(self):
        identity = Sgtin96(
            filter_value=1,
            partition=5,
            company_prefix=614141,
            item_reference=812345,
            serial=6789,
        )
        assert Sgtin96.decode(identity.encode()) == identity

    def test_header_in_place(self):
        epc = Sgtin96(1, 5, 1, 2, 3).encode()
        assert epc.bit_slice(0, 8) == 0x30

    def test_decode_rejects_bad_header(self):
        with pytest.raises(ValueError):
            Sgtin96.decode(EPC(0, 96))

    def test_decode_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Sgtin96.decode(EPC(0, 64))

    def test_field_bounds(self):
        with pytest.raises(ValueError):
            Sgtin96(8, 5, 1, 2, 3)  # filter too big
        with pytest.raises(ValueError):
            Sgtin96(1, 7, 1, 2, 3)  # bad partition
        with pytest.raises(ValueError):
            Sgtin96(1, 5, 1 << 24, 2, 3)  # company prefix too big for p5
        with pytest.raises(ValueError):
            Sgtin96(1, 5, 1, 1 << 20, 3)  # item ref too big for p5
        with pytest.raises(ValueError):
            Sgtin96(1, 5, 1, 2, 1 << 38)  # serial too big

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=7),
        st.sampled_from(sorted(PARTITION_TABLE)),
        st.data(),
    )
    def test_round_trip_property(self, filter_value, partition, data):
        cp_bits, _, ir_bits, _ = PARTITION_TABLE[partition]
        identity = Sgtin96(
            filter_value=filter_value,
            partition=partition,
            company_prefix=data.draw(
                st.integers(min_value=0, max_value=(1 << cp_bits) - 1)
            ),
            item_reference=data.draw(
                st.integers(min_value=0, max_value=(1 << ir_bits) - 1)
            ),
            serial=data.draw(st.integers(min_value=0, max_value=(1 << 38) - 1)),
        )
        assert Sgtin96.decode(identity.encode()) == identity


class TestProductLine:
    def test_same_sku_shares_long_prefix(self):
        line = ProductLine(company_prefix=614141, item_reference=7)
        a, b = line.tag(1), line.tag(2**30)
        assert a.bit_slice(0, SKU_PREFIX_BITS) == b.bit_slice(0, SKU_PREFIX_BITS)

    def test_sku_mask_covers_all_serials(self):
        line = ProductLine(company_prefix=614141, item_reference=7)
        tags = [line.tag(s) for s in (0, 1, 2**37, 2**38 - 1)]
        prefix_len = SKU_PREFIX_BITS
        mask = BitMask(tags[0].bit_slice(0, prefix_len), 0, prefix_len)
        assert all(mask.covers(t) for t in tags)

    def test_other_sku_not_covered(self):
        a = ProductLine(company_prefix=614141, item_reference=7)
        b = ProductLine(company_prefix=614141, item_reference=8)
        prefix_len = SKU_PREFIX_BITS
        mask = BitMask(a.tag(0).bit_slice(0, prefix_len), 0, prefix_len)
        assert not mask.covers(b.tag(0))


class TestWarehousePopulation:
    def test_sizes(self):
        tags, lines = warehouse_population(
            50, n_companies=2, skus_per_company=3, rng=1
        )
        assert len(tags) == 50
        assert len(lines) == 6
        assert len({t.value for t in tags}) == 50

    def test_all_sgtin(self):
        tags, _ = warehouse_population(20, rng=2)
        assert all(t.length == 96 for t in tags)
        assert all(t.bit_slice(0, 8) == SGTIN96_HEADER for t in tags)

    def test_reproducible(self):
        a, _ = warehouse_population(10, rng=3)
        b, _ = warehouse_population(10, rng=3)
        assert [t.value for t in a] == [t.value for t in b]

    def test_validation(self):
        with pytest.raises(ValueError):
            warehouse_population(0)
