"""LLRP reader-operation messages (the subset Tagwatch generates).

LLRP (Low Level Reader Protocol) is the EPCglobal protocol a client uses to
drive a Gen2 reader.  Reader operation is described by a **ROSpec** that
contains one or more **AISpecs** (antenna inventory specs); each AISpec
carries **C1G2Filter** entries that translate directly into Gen2 Select
commands.  Fig 11 of the paper shows a ROSpec with three bitmask filters;
``rospec_to_xml`` emits the same shape.

Tagwatch configures one AISpec per bitmask (the paper's default), so a
Phase II schedule of k bitmasks becomes a ROSpec with k AISpecs executed
sequentially, each paying its own round start-up cost — the quantity the
set-cover objective (Eqn 12) minimises.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.gen2.commands import Select, SelectAction, SelectTarget
from repro.gen2.epc import MemoryBank
from repro.gen2.select import BitMask


@dataclass(frozen=True)
class C1G2Filter:
    """A Gen2 Select filter inside an AISpec."""

    pointer: int
    mask_bits: str
    membank: MemoryBank = MemoryBank.EPC

    def __post_init__(self) -> None:
        if self.pointer < 0:
            raise ValueError("filter pointer must be non-negative")
        if any(c not in "01" for c in self.mask_bits):
            raise ValueError(f"mask must be a bit string, got {self.mask_bits!r}")

    @property
    def length(self) -> int:
        return len(self.mask_bits)

    @classmethod
    def from_bitmask(cls, bitmask: BitMask) -> "C1G2Filter":
        return cls(pointer=bitmask.pointer, mask_bits=bitmask.bits())

    def to_bitmask(self) -> BitMask:
        """The filter as the paper's S(m, p, l) bitmask."""
        return BitMask.from_bits(self.mask_bits, self.pointer)

    def to_select(
        self, action: SelectAction = SelectAction.ASSERT_DEASSERT
    ) -> Select:
        """Lower the filter to a concrete Gen2 Select command."""
        mask = int(self.mask_bits, 2) if self.mask_bits else 0
        return Select(
            membank=self.membank,
            pointer=self.pointer,
            length=self.length,
            mask=mask,
            target=SelectTarget.SL,
            action=action,
        )


@dataclass(frozen=True)
class AISpecStopTrigger:
    """When an AISpec yields control back to the ROSpec: after ``n_rounds``
    inventory rounds per antenna."""

    n_rounds: int = 1

    def __post_init__(self) -> None:
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")


@dataclass(frozen=True)
class AISpec:
    """One antenna-inventory spec: antennas + filters + stop trigger."""

    antenna_ids: Tuple[int, ...]
    filters: Tuple[C1G2Filter, ...] = ()
    stop: AISpecStopTrigger = field(default_factory=AISpecStopTrigger)

    def __post_init__(self) -> None:
        if not self.antenna_ids:
            raise ValueError("an AISpec needs at least one antenna")

    def selects(self) -> List[Select]:
        """Lower the filter list to Gen2 Select commands (union coverage)."""
        if not self.filters:
            return []
        head = self.filters[0].to_select(SelectAction.ASSERT_DEASSERT)
        rest = [
            f.to_select(SelectAction.ASSERT_NOTHING) for f in self.filters[1:]
        ]
        return [head, *rest]


@dataclass(frozen=True)
class ROSpec:
    """A reader-operation spec: ordered AISpecs plus an overall duration."""

    rospec_id: int
    ai_specs: Tuple[AISpec, ...]
    duration_s: Optional[float] = None
    priority: int = 0

    def __post_init__(self) -> None:
        if self.rospec_id < 1:
            raise ValueError("ROSpec id must be >= 1 (0 is reserved)")
        if not self.ai_specs:
            raise ValueError("a ROSpec needs at least one AISpec")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError("duration must be positive")


# ---------------------------------------------------------------------------
# XML encoding (LTK-style document, as in the paper's Fig 11)
# ---------------------------------------------------------------------------

def rospec_to_xml(rospec: ROSpec) -> str:
    """Serialise a ROSpec to an LTK-flavoured XML document."""
    root = ET.Element("ROSpec", id=str(rospec.rospec_id), priority=str(rospec.priority))
    boundary = ET.SubElement(root, "ROBoundarySpec")
    stop = ET.SubElement(boundary, "ROSpecStopTrigger")
    if rospec.duration_s is not None:
        stop.set("type", "Duration")
        stop.set("durationMs", str(int(round(rospec.duration_s * 1000))))
    else:
        stop.set("type", "Null")
    for ai in rospec.ai_specs:
        ai_el = ET.SubElement(root, "AISpec")
        ET.SubElement(
            ai_el, "AntennaIDs"
        ).text = " ".join(str(a) for a in ai.antenna_ids)
        stop_el = ET.SubElement(ai_el, "AISpecStopTrigger")
        stop_el.set("type", "NRounds")
        stop_el.set("n", str(ai.stop.n_rounds))
        inv = ET.SubElement(ai_el, "InventoryParameterSpec")
        for f in ai.filters:
            f_el = ET.SubElement(inv, "C1G2Filter")
            mask_el = ET.SubElement(f_el, "C1G2TagInventoryMask")
            mask_el.set("MB", str(int(f.membank)))
            mask_el.set("pointer", str(f.pointer))
            mask_el.text = f.mask_bits
    return ET.tostring(root, encoding="unicode")


def rospec_from_xml(document: str) -> ROSpec:
    """Parse an XML document produced by :func:`rospec_to_xml`."""
    root = ET.fromstring(document)
    if root.tag != "ROSpec":
        raise ValueError(f"expected <ROSpec> root, got <{root.tag}>")
    duration_s: Optional[float] = None
    stop = root.find("./ROBoundarySpec/ROSpecStopTrigger")
    if stop is not None and stop.get("type") == "Duration":
        duration_s = int(stop.get("durationMs", "0")) / 1000.0
    ai_specs: List[AISpec] = []
    for ai_el in root.findall("AISpec"):
        antenna_text = ai_el.findtext("AntennaIDs", default="").strip()
        antenna_ids = tuple(int(x) for x in antenna_text.split()) or (0,)
        stop_el = ai_el.find("AISpecStopTrigger")
        n = int(stop_el.get("n", "1")) if stop_el is not None else 1
        trigger = AISpecStopTrigger(n_rounds=n)
        filters = []
        for f_el in ai_el.findall("./InventoryParameterSpec/C1G2Filter"):
            mask_el = f_el.find("C1G2TagInventoryMask")
            if mask_el is None:
                raise ValueError("C1G2Filter without a mask element")
            filters.append(
                C1G2Filter(
                    pointer=int(mask_el.get("pointer", "0")),
                    mask_bits=(mask_el.text or "").strip(),
                    membank=MemoryBank(int(mask_el.get("MB", "1"))),
                )
            )
        ai_specs.append(AISpec(antenna_ids, tuple(filters), trigger))
    return ROSpec(
        rospec_id=int(root.get("id", "1")),
        ai_specs=tuple(ai_specs),
        duration_s=duration_s,
        priority=int(root.get("priority", "0")),
    )


def read_all_rospec(
    rospec_id: int,
    antenna_ids: Sequence[int],
    duration_s: Optional[float] = None,
) -> ROSpec:
    """A ROSpec with no filters: plain read-everything inventory."""
    return ROSpec(
        rospec_id=rospec_id,
        ai_specs=(AISpec(tuple(antenna_ids), (), AISpecStopTrigger(n_rounds=1)),),
        duration_s=duration_s,
    )
