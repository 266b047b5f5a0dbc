"""The Gen2 Select command as a typed message, and the Gen2 sessions.

Only the fields Tagwatch manipulates are modelled in full (the Select
command's MemBank/Pointer/Length/Mask quadruple); the remaining mandatory
fields carry spec-faithful defaults.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.gen2.epc import MemoryBank


class SelectTarget(enum.IntEnum):
    """Which flag a Select command modifies (Gen2 Table 6-29)."""

    INVENTORIED_S0 = 0
    INVENTORIED_S1 = 1
    INVENTORIED_S2 = 2
    INVENTORIED_S3 = 3
    SL = 4


class SelectAction(enum.IntEnum):
    """What matching/non-matching tags do to the targeted flag.

    Only the actions Tagwatch uses are enumerated; ``ASSERT_DEASSERT`` is the
    default "matching tags participate, others do not" behaviour.
    """

    ASSERT_DEASSERT = 0
    ASSERT_NOTHING = 1
    NOTHING_DEASSERT = 2
    NEGATE_NOTHING = 3


class Session(enum.IntEnum):
    """Gen2 inventory sessions."""

    S0 = 0
    S1 = 1
    S2 = 2
    S3 = 3


@dataclass(frozen=True)
class Select:
    """The Select command: chooses the tag subpopulation for inventory.

    ``mask`` is an integer whose ``length`` bits are compared (MSB-first)
    against tag memory starting at bit address ``pointer`` of ``membank``.
    """

    membank: MemoryBank
    pointer: int
    length: int
    mask: int
    target: SelectTarget = SelectTarget.SL
    action: SelectAction = SelectAction.ASSERT_DEASSERT
    truncate: bool = False

    def __post_init__(self) -> None:
        if self.pointer < 0:
            raise ValueError("Select pointer must be non-negative")
        if self.length < 0:
            raise ValueError("Select mask length must be non-negative")
        if self.mask < 0 or (self.length and self.mask >= (1 << self.length)):
            raise ValueError(
                f"mask 0b{self.mask:b} does not fit in {self.length} bits"
            )

    def mask_bits(self) -> str:
        """The mask as a binary string of exactly ``length`` characters."""
        if self.length == 0:
            return ""
        return format(self.mask, f"0{self.length}b")
