"""Candidate bitmask enumeration and the columnar candidate table (Fig 10).

The search space of Section 5.2 is all ``S(mask, pointer, length)`` triples
whose mask equals some target tag's EPC bits at (pointer, length) — at most
``n' * L * (L+1) / 2`` candidates.  Two sound prunings keep the table small
without changing what the greedy can pick:

1. **Dominated singletons.**  A mask covering exactly one target plus k >= 1
   non-targets has gain 1 at price C(1 + k); the target's full-EPC mask has
   the same gain at the strictly lower price C(1).  The greedy would never
   prefer the dominated mask, so only masks covering **two or more targets**
   are enumerated, plus one full-EPC mask per target.
2. **Identical coverage merge.**  Bitmasks with identical indicator bitmaps
   are interchangeable (same gain, same price); one representative is kept —
   exactly the merge step the paper describes for its indexed table.

``max_mask_length`` bounds the enumerated mask lengths: with uniformly
random EPCs, two targets share an l-bit window at a given pointer with
probability 2^-l, so windows much longer than ~2 log2(n') almost never
yield multi-target masks; the full-EPC fallbacks cover everything else.

Each plan's candidates form one :class:`CandidateTable`, stored column by
column: the coverage of every row packed into a ``uint64`` word matrix of
shape (rows, ceil(n / 64)) — bit i of word w is tag 64 w + i — beside mask,
pointer and length columns.  The table is built with one ``packbits`` over
the windows of every mask length and merged with one vectorised dedup in
which the first occurrence wins; :class:`CandidateRow` objects are only
created when a row is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, Sequence, Union

import numpy as np

from repro.gen2.epc import EPC
from repro.gen2.select import BitMask

#: Longest enumerable window: its value must fit a uint64 window cache
#: entry and a Python-int ``BitMask`` check alike.
MAX_WINDOW_BITS = 63


# ----------------------------------------------------------------------
# Packed bitsets
# ----------------------------------------------------------------------
# Coverage bitmaps are one bool per tag for numpy-facing callers; the set
# cover only intersects them and counts bits, so it works on the packed
# form: 64 tags per little-endian uint64 word, bit i of word w being tag
# 64 w + i.  ``np.bitwise_count`` then popcounts a whole candidate table in
# one call.  The exact solver carries the same bits as one Python integer.


def pack_rows(coverage: np.ndarray) -> np.ndarray:
    """Pack a (rows, n) bool matrix into (rows, ceil(n / 64)) uint64 words,
    column-major: row-wise popcount sums then add whole word columns."""
    rows, n = coverage.shape
    packed = np.zeros((rows, -(-n // 64) * 8), dtype=np.uint8)
    packed[:, : (n + 7) // 8] = np.packbits(coverage, axis=1, bitorder="little")
    return np.asfortranarray(packed.view("<u8"))


def pack_bitmap(mask: np.ndarray) -> int:
    """Pack a bool coverage array into one Python integer (bit i = tag i)."""
    return int.from_bytes(pack_rows(mask.astype(bool)[None]).tobytes(), "little")


def unpack_bitmap(packed: int, population_size: int) -> np.ndarray:
    """Inverse of :func:`pack_bitmap` (for tests and debugging)."""
    raw = packed.to_bytes((population_size + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits[:population_size].astype(bool)


def pack_indices(population_size: int, indices: Sequence[int]) -> int:
    """Packed indicator of ``indices`` (the packed twin of
    :func:`indicator_bitmap`, with the same bounds checking)."""
    packed = 0
    for i in indices:
        if i < 0 or i >= population_size:
            raise IndexError(f"target index {i} outside population")
        packed |= 1 << int(i)
    return packed


@dataclass(frozen=True)
class CandidateRow:
    """One row of the indexed table: a bitmask and its coverage bitmap."""

    bitmask: BitMask
    coverage: np.ndarray  # bool array over the current population

    @property
    def covered_count(self) -> int:
        return int(np.count_nonzero(self.coverage))


class CandidateTable(Sequence[CandidateRow]):
    """One plan's candidate rows, column by column.

    ``words`` holds the packed coverage of every row; ``masks`` (an object
    array of Python ints: a full-EPC mask may exceed 64 bits), ``pointers``
    and ``lengths`` spell each row's bitmask.  Indexing builds a
    :class:`CandidateRow`; slicing returns a table.
    """

    def __init__(
        self,
        words: np.ndarray,
        masks: np.ndarray,
        pointers: np.ndarray,
        lengths: np.ndarray,
        population_size: int,
    ) -> None:
        self.words = np.asfortranarray(words)  # as pack_rows lays it out
        self.masks = masks
        self.pointers = pointers
        self.lengths = lengths
        self.population_size = population_size

    @classmethod
    def of(
        cls, rows: Sequence[CandidateRow], population_size: int
    ) -> "CandidateTable":
        """``rows`` itself if it is a table, else its rows turned into words."""
        if isinstance(rows, CandidateTable):
            return rows
        coverage = np.zeros((len(rows), population_size), dtype=bool)
        for i, row in enumerate(rows):
            coverage[i] = row.coverage
        bitmasks = [row.bitmask for row in rows]
        return cls(
            pack_rows(coverage),
            np.array([b.mask for b in bitmasks], dtype=object),
            np.array([b.pointer for b in bitmasks], dtype=np.intp),
            np.array([b.length for b in bitmasks], dtype=np.intp),
            population_size,
        )

    @cached_property
    def covered_counts(self) -> np.ndarray:
        """|V_i| per row."""
        return np.bitwise_count(self.words).sum(axis=1, dtype=np.intp)

    def bitmask(self, index: int) -> BitMask:
        """The bitmask of row ``index``, without building its coverage."""
        return BitMask(
            self.masks[index], int(self.pointers[index]), int(self.lengths[index])
        )

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, index: Union[int, slice]):  # type: ignore[override]
        if isinstance(index, slice):
            return CandidateTable(
                self.words[index],
                self.masks[index],
                self.pointers[index],
                self.lengths[index],
                self.population_size,
            )
        bitmask = self.bitmask(index)
        raw = np.frombuffer(self.words[index].tobytes(), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little")
        return CandidateRow(bitmask, bits[: self.population_size].astype(bool))

    def __iter__(self) -> Iterator[CandidateRow]:
        return (self[i] for i in range(len(self)))


def _bit_matrix(epcs: Sequence[EPC]) -> np.ndarray:
    """(n, L) uint8 matrix of EPC bits, MSB (Gen2 bit 0) in column 0."""
    if not epcs:
        return np.zeros((0, 0), dtype=np.uint8)
    length = epcs[0].length
    if any(e.length != length for e in epcs):
        raise ValueError("all EPCs in a population must share one length")
    rows = [
        np.frombuffer(e.to_bits().encode("ascii"), dtype=np.uint8) - ord("0")
        for e in epcs
    ]
    return np.vstack(rows)


def _row_hashes(words: np.ndarray) -> np.ndarray:
    """One 64-bit hash per row: a splitmix64 finalizer per word, salted by
    the word's column, summed across the row."""
    z = words + np.arange(1, words.shape[1] + 1, dtype=np.uint64) * np.uint64(
        0x9E3779B97F4A7C15
    )
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> 31)).sum(axis=1)


def _first_occurrences(words: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row."""
    # Stable-sort on the row hashes, so equal rows keep their index order;
    # should two distinct rows share a hash, sort on the words instead.
    keys = _row_hashes(words)
    order = np.argsort(keys, kind="stable")
    tie = keys[order[1:]] == keys[order[:-1]]
    pairs = np.flatnonzero(tie)
    if (words[order[pairs]] != words[order[pairs + 1]]).any():
        order = np.lexsort(words.T)
        tie = (words[order[1:]] == words[order[:-1]]).all(axis=1)
    return np.sort(order[np.concatenate(([True], ~tie))])


class IndexedBitmaskTable:
    """The pre-built indexed table associating bitmasks with coverage.

    Built over the *entire* current population (targets and non-targets),
    then queried per cycle for the candidate rows relevant to a target set.
    Rebuild (or call :meth:`update_population`) when tags come or go; the
    per-cycle query itself is cheap.
    """

    def __init__(
        self,
        epcs: Sequence[EPC],
        max_mask_length: int = 24,
    ) -> None:
        if not 1 <= max_mask_length <= MAX_WINDOW_BITS:
            raise ValueError(
                f"max_mask_length must be in [1, {MAX_WINDOW_BITS}], "
                f"got {max_mask_length}"
            )
        self.epcs = list(epcs)
        self.max_mask_length = max_mask_length
        self._bits = _bit_matrix(self.epcs)
        # Sliding-window values per mask length, computed lazily.
        self._window_cache: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    @property
    def population_size(self) -> int:
        return len(self.epcs)

    def update_population(self, epcs: Sequence[EPC]) -> bool:
        """Replace the population; returns True if anything changed."""
        if [e.value for e in epcs] == [e.value for e in self.epcs]:
            return False
        self.epcs = list(epcs)
        self._bits = _bit_matrix(self.epcs)
        self._window_cache.clear()
        return True

    def _window_values(self, length: int) -> np.ndarray:
        """(L - length + 1, n) values of all length-bit windows, one row per
        pointer, in the narrowest unsigned dtype that holds them."""
        cached = self._window_cache.get(length)
        if cached is not None:
            return cached
        dtype = np.min_scalar_type((1 << length) - 1)
        bits = self._bits.T  # (L, n)
        if length == 1:
            values = np.ascontiguousarray(bits, dtype=dtype)
        else:
            # Each window is its one-shorter prefix shifted left, plus the
            # window's last bit.
            shorter = self._window_values(length - 1)[:-1].astype(dtype)
            values = (shorter << 1) | bits[length - 1 :]
        self._window_cache[length] = values
        return values

    # ------------------------------------------------------------------
    def candidate_rows(self, target_indices: Sequence[int]) -> CandidateTable:
        """Candidate table rows for this target set (merged, pruned).

        Order: one full-EPC row per target, then windows by length, pointer
        and value, ascending; the first row of each coverage is kept.
        """
        n = self.population_size
        targets = np.array(sorted(set(map(int, target_indices))), dtype=np.intp)
        if targets.size and (targets[0] < 0 or targets[-1] >= n):
            raise IndexError("target index outside the population")
        epc_length = self.epcs[0].length if self.epcs else 0
        max_len = min(self.max_mask_length, epc_length) if targets.size else 0

        found = []  # (length, window values, pointers, mask values)
        for length in range(1, max_len + 1):
            values = self._window_values(length)
            ordered = np.sort(values[:, targets], axis=1)  # (pointers, targets)
            repeat = ordered[:, 1:] == ordered[:, :-1]
            # The first of each run of two or more equal values: the
            # windows shared by at least two targets.
            keep = repeat.copy()
            keep[:, 1:] &= ~repeat[:, :-1]
            pointer, column = np.nonzero(keep)  # pointer-major, values ascending
            if not pointer.size:
                break  # no longer window can be shared by two targets
            found.append((length, values, pointer, ordered[pointer, column]))

        # Full-EPC masks first: one per target, always present (the naive
        # baseline's rows, and the greedy's safe fallback).
        block_rows = [targets.size] + [p.size for _, _, p, _ in found]
        coverage = np.zeros((sum(block_rows), n), dtype=bool)
        coverage[np.arange(targets.size), targets] = True
        start = targets.size
        for _, values, pointer, vals in found:
            stop = start + pointer.size
            np.equal(values[pointer], vals[:, None], out=coverage[start:stop])
            start = stop
        masks = np.concatenate(
            [np.array([self.epcs[t].value for t in targets.tolist()], dtype=object)]
            + [vals.astype(object) for _, _, _, vals in found]
        )
        pointers = np.concatenate(
            [np.zeros(targets.size, dtype=np.intp)] + [p for _, _, p, _ in found]
        )
        lengths = np.repeat([epc_length] + [l for l, _, _, _ in found], block_rows)

        words = pack_rows(coverage)
        kept = _first_occurrences(words) if len(words) else np.zeros(0, np.intp)
        return CandidateTable(
            words[kept], masks[kept], pointers[kept], lengths[kept], n
        )

    # ------------------------------------------------------------------


def indicator_bitmap(
    population_size: int, target_indices: Sequence[int]
) -> np.ndarray:
    """The input indicator bitmap V of the search algorithm (Fig 10b)."""
    v = np.zeros(population_size, dtype=bool)
    for i in target_indices:
        if i < 0 or i >= population_size:
            raise IndexError(f"target index {i} outside population")
        v[i] = True
    return v
