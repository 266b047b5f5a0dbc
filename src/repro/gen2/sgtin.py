"""SGTIN-96: the EPC scheme real supply chains burn into their tags.

The paper's evaluation uses *random* EPCs ("We do not make any assumption on
the distribution of the EPCs"), which is the worst case for bitmask grouping.
Production tags overwhelmingly carry GS1 SGTIN-96 codes:

    header (8) | filter (3) | partition (3) | company prefix (20-40)
    | item reference (24-4) | serial (38)

Tags from one company — or one carton of one product — share long common
prefixes, which is exactly the structure the Phase II set cover exploits
(one short mask covers a whole carton).  This module implements the full
encode/decode per the GS1 Tag Data Standard partition table, plus warehouse
population generators used by the ablation tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.gen2.epc import EPC
from repro.util.rng import SeedLike, make_rng

#: SGTIN-96 header value (GS1 TDS Table 14-1).
SGTIN96_HEADER = 0x30

#: GS1 partition table: partition value -> (company-prefix bits/digits,
#: item-reference bits/digits).  TDS 1.9, Table 14-2.
PARTITION_TABLE = {
    0: (40, 12, 4, 1),
    1: (37, 11, 7, 2),
    2: (34, 10, 10, 3),
    3: (30, 9, 14, 4),
    4: (27, 8, 17, 5),
    5: (24, 7, 20, 6),
    6: (20, 6, 24, 7),
}

SERIAL_BITS = 38


@dataclass(frozen=True)
class Sgtin96:
    """A decoded SGTIN-96 identity."""

    filter_value: int
    partition: int
    company_prefix: int
    item_reference: int
    serial: int

    def __post_init__(self) -> None:
        if not 0 <= self.filter_value < 8:
            raise ValueError("filter value is 3 bits")
        if self.partition not in PARTITION_TABLE:
            raise ValueError(f"unknown partition {self.partition}")
        cp_bits, cp_digits, ir_bits, ir_digits = PARTITION_TABLE[self.partition]
        if not 0 <= self.company_prefix < (1 << cp_bits):
            raise ValueError(
                f"company prefix needs <= {cp_bits} bits in partition "
                f"{self.partition}"
            )
        if not 0 <= self.item_reference < (1 << ir_bits):
            raise ValueError(
                f"item reference needs <= {ir_bits} bits in partition "
                f"{self.partition}"
            )
        if not 0 <= self.serial < (1 << SERIAL_BITS):
            raise ValueError("serial is 38 bits")

    # ------------------------------------------------------------------
    def encode(self) -> EPC:
        """Pack into a 96-bit EPC."""
        cp_bits, _, ir_bits, _ = PARTITION_TABLE[self.partition]
        value = SGTIN96_HEADER
        value = (value << 3) | self.filter_value
        value = (value << 3) | self.partition
        value = (value << cp_bits) | self.company_prefix
        value = (value << ir_bits) | self.item_reference
        value = (value << SERIAL_BITS) | self.serial
        return EPC(value, 96)

    @classmethod
    def decode(cls, epc: EPC) -> "Sgtin96":
        """Unpack a 96-bit EPC; raises if it is not SGTIN-96."""
        if epc.length != 96:
            raise ValueError("SGTIN-96 requires a 96-bit EPC")
        if epc.bit_slice(0, 8) != SGTIN96_HEADER:
            raise ValueError(
                f"not SGTIN-96: header 0x{epc.bit_slice(0, 8):02x}"
            )
        filter_value = epc.bit_slice(8, 3)
        partition = epc.bit_slice(11, 3)
        if partition not in PARTITION_TABLE:
            raise ValueError(f"invalid partition {partition}")
        cp_bits, _, ir_bits, _ = PARTITION_TABLE[partition]
        company_prefix = epc.bit_slice(14, cp_bits)
        item_reference = epc.bit_slice(14 + cp_bits, ir_bits)
        serial = epc.bit_slice(14 + cp_bits + ir_bits, SERIAL_BITS)
        return cls(
            filter_value=filter_value,
            partition=partition,
            company_prefix=company_prefix,
            item_reference=item_reference,
            serial=serial,
        )


@dataclass(frozen=True)
class ProductLine:
    """One SKU: a (company prefix, item reference) pair issuing serials."""

    company_prefix: int
    item_reference: int
    partition: int = 5
    filter_value: int = 1  # POS item

    def tag(self, serial: int) -> EPC:
        """The EPC of one physical item of this SKU."""
        return Sgtin96(
            filter_value=self.filter_value,
            partition=self.partition,
            company_prefix=self.company_prefix,
            item_reference=self.item_reference,
            serial=serial,
        ).encode()


def warehouse_population(
    n_tags: int,
    n_companies: int = 3,
    skus_per_company: int = 4,
    rng: SeedLike = None,
    partition: int = 5,
) -> Tuple[List[EPC], List[ProductLine]]:
    """A realistic warehouse: items drawn from a few companies' SKUs.

    Items of one SKU differ only in their 38-bit serial, so they share the
    leading 58 bits — a single short bitmask covers a whole product line.
    Returns (tags, product lines).
    """
    if n_tags < 1:
        raise ValueError("need at least one tag")
    gen = make_rng(rng)
    cp_bits, _, ir_bits, _ = PARTITION_TABLE[partition]
    lines: List[ProductLine] = []
    for _ in range(n_companies):
        company = int(gen.integers(1, 1 << cp_bits))
        for _ in range(skus_per_company):
            lines.append(
                ProductLine(
                    company_prefix=company,
                    item_reference=int(gen.integers(0, 1 << ir_bits)),
                    partition=partition,
                )
            )
    tags: List[EPC] = []
    seen = set()
    while len(tags) < n_tags:
        line = lines[int(gen.integers(0, len(lines)))]
        epc = line.tag(int(gen.integers(0, 1 << SERIAL_BITS)))
        if epc.value in seen:
            continue  # pragma: no cover - 38-bit serials rarely collide
        seen.add(epc.value)
        tags.append(epc)
    return tags, lines
