"""Gen2 reader commands as typed messages.

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


@dataclass(frozen=True)
class Query:
    """Starts an inventory frame of ``2**q`` slots."""

    q: int
    session: Session = Session.S0
    sel_only: bool = True  # only tags with SL asserted participate
    target_a: bool = True  # inventoried-flag target (A or B)

    def __post_init__(self) -> None:
        if not 0 <= self.q <= 15:
            raise ValueError(f"Q must be in 0..15, got {self.q}")

    @property
    def frame_length(self) -> int:
        return 1 << self.q


@dataclass(frozen=True)
class QueryAdjust:
    """Adjusts Q mid-round; tags redraw their slot counters."""

    q: int

    def __post_init__(self) -> None:
        if not 0 <= self.q <= 15:
            raise ValueError(f"Q must be in 0..15, got {self.q}")


@dataclass(frozen=True)
class QueryRep:
    """Advances to the next slot (tags decrement their slot counters)."""

    session: Session = Session.S0


@dataclass(frozen=True)
class Ack:
    """Acknowledges the RN16 of the tag that owns the current slot."""

    rn16: int

    def __post_init__(self) -> None:
        if not 0 <= self.rn16 < (1 << 16):
            raise ValueError("RN16 must be a 16-bit value")
