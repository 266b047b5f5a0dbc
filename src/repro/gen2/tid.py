"""TID memory bank contents (Gen2 Table 6-20 layout).

Every Gen2 tag ships a Tag IDentification bank whose first 32 bits are:

    0xE2 (8 bits, class identifier)
    | mask-designer ID, MDID (12 bits)
    | tag model number, TMN (12 bits)

followed (in the common 64-bit serialized TID) by a 32-bit factory serial.
Selecting on the MDID is how a reader targets "all ImpinJ Monza tags" or
"all Alien Higgs tags" regardless of their EPCs — a selective-reading axis
orthogonal to the paper's EPC bitmasks, supported here because the Select
machinery matches against any memory bank.
"""

from __future__ import annotations

from repro.gen2.epc import EPC, MemoryBank, TagMemory
from repro.gen2.commands import Select, SelectAction, SelectTarget

#: Gen2 class identifier that opens every TID bank.
TID_CLASS_IDENTIFIER = 0xE2

#: A few well-known mask-designer IDs (GS1 registry).
MDID_IMPINJ = 0x001
MDID_ALIEN = 0x003
MDID_NXP = 0x006

#: Tag model numbers used by the generators (illustrative).
TMN_ALIEN_HIGGS3 = 0x412
TMN_IMPINJ_MONZA4 = 0x10C


def make_tid(mdid: int, tag_model: int, serial: int = 0) -> EPC:
    """Build a 64-bit serialized TID bank value."""
    if not 0 <= mdid < (1 << 12):
        raise ValueError("MDID is 12 bits")
    if not 0 <= tag_model < (1 << 12):
        raise ValueError("tag model number is 12 bits")
    if not 0 <= serial < (1 << 32):
        raise ValueError("TID serial is 32 bits")
    value = TID_CLASS_IDENTIFIER
    value = (value << 12) | mdid
    value = (value << 12) | tag_model
    value = (value << 32) | serial
    return EPC(value, 64)


def decode_mdid(tid: EPC) -> int:
    """Mask-designer ID of a TID bank; raises on a malformed bank."""
    if tid.length < 32:
        raise ValueError("TID bank too short")
    if tid.bit_slice(0, 8) != TID_CLASS_IDENTIFIER:
        raise ValueError("not a Gen2 TID bank (class identifier != 0xE2)")
    return tid.bit_slice(8, 12)


def select_manufacturer(
    mdid: int, action: SelectAction = SelectAction.ASSERT_DEASSERT
) -> Select:
    """A Select matching every tag from one mask designer (via TID)."""
    if not 0 <= mdid < (1 << 12):
        raise ValueError("MDID is 12 bits")
    return Select(
        membank=MemoryBank.TID,
        pointer=8,
        length=12,
        mask=mdid,
        target=SelectTarget.SL,
        action=action,
    )


def tagged_memory(
    epc: EPC,
    mdid: int = MDID_ALIEN,
    tag_model: int = TMN_ALIEN_HIGGS3,
    serial: int = 0,
) -> TagMemory:
    """A full tag memory: the given EPC plus a realistic TID."""
    return TagMemory(epc=epc, tid=make_tid(mdid, tag_model, serial))
