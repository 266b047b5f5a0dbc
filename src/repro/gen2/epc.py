"""Electronic Product Codes and Gen2 tag memory banks.

Gen2 tag memory is organised into four banks (RESERVED, EPC, TID, USER).
Tagwatch only ever masks against the EPC bank, but the full bank model is
implemented so that `Select` semantics are faithful to the specification.

Bit addressing follows the Gen2 convention used in the paper's Fig 9/10:
bit 0 is the most significant (leftmost) bit of the stored code, and a mask
with ``pointer=p``, ``length=l`` compares against bits ``p .. p+l-1``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional


from repro.util.rng import SeedLike, make_rng


class MemoryBank(enum.IntEnum):
    """The four Gen2 memory banks (Table 6-14 of the Gen2 spec)."""

    RESERVED = 0
    EPC = 1
    TID = 2
    USER = 3


@dataclass(frozen=True)
class EPC:
    """An EPC identifier of ``length`` bits stored as an unsigned integer.

    ``value`` holds the code with bit 0 (the Gen2 MSB) at the integer's most
    significant position, i.e. ``EPC(0b101100, 6)`` prints as ``101100``.
    """

    value: int
    length: int = 96

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"EPC length must be positive, got {self.length}")
        if self.value < 0 or self.value >= (1 << self.length):
            raise ValueError(
                f"EPC value {self.value} does not fit in {self.length} bits"
            )

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_bits(cls, bits: str) -> "EPC":
        """Build from a binary string, e.g. ``EPC.from_bits('001110')``."""
        cleaned = bits.replace("_", "").replace(" ", "")
        if not cleaned or any(c not in "01" for c in cleaned):
            raise ValueError(f"not a binary string: {bits!r}")
        return cls(int(cleaned, 2), len(cleaned))

    @classmethod
    def from_hex(cls, hexstr: str, length: Optional[int] = None) -> "EPC":
        """Build from a hex string; length defaults to 4 bits per digit."""
        cleaned = hexstr.replace("-", "").replace(" ", "").lower()
        if cleaned.startswith("0x"):
            cleaned = cleaned[2:]
        if not cleaned:
            raise ValueError("empty hex string")
        bits = len(cleaned) * 4
        return cls(int(cleaned, 16), length if length is not None else bits)

    @classmethod
    def random(cls, rng: SeedLike = None, length: int = 96) -> "EPC":
        """Draw a uniformly random EPC of ``length`` bits."""
        gen = make_rng(rng)
        n_words = (length + 31) // 32
        value = 0
        # One batched draw; numpy's bounded generator consumes the identical
        # stream words as the equivalent sequence of scalar calls, so seeded
        # populations are unchanged.
        for word in gen.integers(0, 2**32, size=n_words).tolist():
            value = (value << 32) | word
        return cls(value & ((1 << length) - 1), length)

    # -- bit access --------------------------------------------------------

    def bit_slice(self, pointer: int, length: int) -> int:
        """Integer value of bits ``pointer .. pointer+length-1`` (MSB first).

        Raises ``IndexError`` when the window falls off the end of the code
        (a real tag simply fails to match such a mask; callers that want that
        behaviour use :func:`repro.gen2.select.matches`).
        """
        if length <= 0:
            raise ValueError("slice length must be positive")
        if pointer < 0 or pointer + length > self.length:
            raise IndexError(
                f"slice [{pointer}, {pointer + length}) outside EPC of "
                f"{self.length} bits"
            )
        shift = self.length - pointer - length
        return (self.value >> shift) & ((1 << length) - 1)

    # -- formatting --------------------------------------------------------
    def to_bits(self) -> str:
        """The code as a binary string, Gen2 bit 0 first."""
        return format(self.value, f"0{self.length}b")

    def to_hex(self) -> str:
        """The code as zero-padded lowercase hex."""
        n_digits = (self.length + 3) // 4
        return format(self.value, f"0{n_digits}x")

    def __str__(self) -> str:
        return self.to_hex()

    def __repr__(self) -> str:
        return f"EPC(0x{self.to_hex()}, length={self.length})"


@dataclass(frozen=True)
class TagMemory:
    """The four banks of one tag; only the EPC bank is populated by default."""

    epc: EPC
    tid: EPC = EPC(0, 64)
    user: EPC = EPC(0, 32)
    reserved: EPC = EPC(0, 32)

    def bank(self, which: MemoryBank) -> EPC:
        """Contents of the requested memory bank."""
        if which == MemoryBank.EPC:
            return self.epc
        if which == MemoryBank.TID:
            return self.tid
        if which == MemoryBank.USER:
            return self.user
        return self.reserved


def random_epc_population(
    n: int, rng: SeedLike = None, length: int = 96
) -> List[EPC]:
    """Draw ``n`` distinct random EPCs (the paper deploys random EPCs)."""
    if n < 0:
        raise ValueError("population size must be non-negative")
    gen = make_rng(rng)
    n_words = (length + 31) // 32
    mask = (1 << length) - 1
    seen = set()
    out: List[EPC] = []
    # What a loop of EPC.random calls draws, a batch at a time: numpy
    # draws each bounded 32-bit word with one next_uint32, so a
    # (k, n_words) draw reads the same stream as k calls of n_words.  A
    # shortfall left by duplicates is drawn the same way.
    while len(out) < n:
        words = gen.integers(0, 2**32, size=(n - len(out), n_words))
        for row in words.tolist():
            value = 0
            for word in row:
                value = (value << 32) | word
            value &= mask
            if value in seen:
                continue
            seen.add(value)
            out.append(EPC(value, length))
    return out


def sequential_epc_population(
    n: int, start: int = 0, length: int = 96
) -> List[EPC]:
    """EPCs ``start, start+1, ...`` — useful for deterministic tests."""
    return [EPC(start + i, length) for i in range(n)]
