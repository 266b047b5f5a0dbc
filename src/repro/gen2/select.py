"""Select/bitmask matching semantics over tag memory.

A bitmask ``S(mask, pointer, length)`` covers a tag when the ``length`` bits
of the chosen memory bank starting at bit ``pointer`` equal ``mask``
(Gen2 6.3.2.12.1).  A mask that extends past the end of the stored code does
not match, mirroring real tag behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from typing import Union

from repro.gen2.commands import Select, SelectAction, SelectTarget
from repro.gen2.epc import EPC, MemoryBank, TagMemory

#: Select matching works on either a bare EPC (the common case: masks on
#: the EPC bank, other banks defaulting to zeros) or a full TagMemory.
Matchable = Union[EPC, TagMemory]


@dataclass(frozen=True)
class BitMask:
    """The paper's ``S(m, p, l)`` notation: mask value, pointer, length.

    MemBank is implicitly the EPC bank (as in the paper, Section 5.2).
    """

    mask: int
    pointer: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0 or self.pointer < 0:
            raise ValueError("pointer/length must be non-negative")
        if self.length and not 0 <= self.mask < (1 << self.length):
            raise ValueError(
                f"mask {self.mask} does not fit in {self.length} bits"
            )
        if self.length == 0 and self.mask != 0:
            raise ValueError("zero-length mask must have mask value 0")

    @classmethod
    def from_bits(cls, bits: str, pointer: int) -> "BitMask":
        """``BitMask.from_bits('10', 4)`` is the paper's S(10_2, 4, 2)."""
        if bits == "":
            return cls(0, pointer, 0)
        return cls(int(bits, 2), pointer, len(bits))

    @classmethod
    def full_epc(cls, epc: EPC) -> "BitMask":
        """The naive-baseline mask: the tag's entire EPC."""
        return cls(epc.value, 0, epc.length)

    def covers(self, epc: EPC) -> bool:
        """Whether this bitmask matches ``epc``."""
        if self.length == 0:
            return True
        if self.pointer + self.length > epc.length:
            return False
        return epc.bit_slice(self.pointer, self.length) == self.mask

    def to_select(
        self,
        target: SelectTarget = SelectTarget.SL,
        action: SelectAction = SelectAction.ASSERT_DEASSERT,
    ) -> Select:
        """Lower to a concrete Gen2 Select command on the EPC bank."""
        return Select(
            membank=MemoryBank.EPC,
            pointer=self.pointer,
            length=self.length,
            mask=self.mask,
            target=target,
            action=action,
        )

    def bits(self) -> str:
        """The mask as a binary string of exactly ``length`` characters."""
        if self.length == 0:
            return ""
        return format(self.mask, f"0{self.length}b")

    def __str__(self) -> str:
        return f"S({self.bits() or 'e'}_2, {self.pointer}, {self.length})"


def matches(select: Select, tag: Matchable) -> bool:
    """Whether a Select command's mask matches the tag's memory.

    ``tag`` may be a bare :class:`EPC` (non-EPC banks then hold their
    all-zero defaults) or a full :class:`TagMemory` (masks against TID/USER
    compare against real contents, e.g. manufacturer targeting via the
    TID's mask-designer field).
    """
    memory = tag if isinstance(tag, TagMemory) else TagMemory(epc=tag)
    bank = memory.bank(select.membank)
    if select.length == 0:
        return True
    if select.pointer + select.length > bank.length:
        return False
    return bank.bit_slice(select.pointer, select.length) == select.mask


def apply_selects(
    selects: Sequence[Select], tags: Iterable[Matchable]
) -> List[bool]:
    """Evaluate a Select sequence against a population; returns SL flags.

    Commands are applied in order, as a reader would transmit them.  With the
    default ``ASSERT_DEASSERT`` action the *last* command wins for every tag;
    ``ASSERT_NOTHING`` lets multiple Selects accumulate (union coverage),
    which is how a multi-filter AISpec is realised.  Each tag may be a bare
    EPC or a full TagMemory (see :func:`matches`).
    """
    epc_list = list(tags)
    flags = [False] * len(epc_list)
    if not selects:
        # No Select => no SL filtering; every tag participates.
        return [True] * len(epc_list)
    for select in selects:
        for i, epc in enumerate(epc_list):
            hit = matches(select, epc)
            if select.action == SelectAction.ASSERT_DEASSERT:
                flags[i] = hit
            elif select.action == SelectAction.ASSERT_NOTHING:
                flags[i] = flags[i] or hit
            elif select.action == SelectAction.NOTHING_DEASSERT:
                # Non-matching tags are deasserted; matching tags keep state.
                flags[i] = flags[i] and hit
            elif select.action == SelectAction.NEGATE_NOTHING:
                flags[i] = (not flags[i]) if hit else flags[i]
            else:  # pragma: no cover - enum is exhaustive
                raise NotImplementedError(select.action)
    return flags


def union_selects(bitmasks: Sequence[BitMask]) -> List[Select]:
    """Select sequence asserting SL for tags covered by *any* bitmask."""
    if not bitmasks:
        return []
    head = bitmasks[0].to_select(action=SelectAction.ASSERT_DEASSERT)
    rest = [b.to_select(action=SelectAction.ASSERT_NOTHING) for b in bitmasks[1:]]
    return [head, *rest]


def coverage(bitmask: BitMask, epcs: Sequence[EPC]) -> Tuple[int, ...]:
    """Indices of the tags in ``epcs`` covered by ``bitmask``."""
    return tuple(i for i, epc in enumerate(epcs) if bitmask.covers(epc))
