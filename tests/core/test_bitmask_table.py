"""Tests for candidate bitmask enumeration and the indexed table (Fig 10)."""

import numpy as np
import pytest

from repro.core.bitmask import (
    CandidateRow,
    IndexedBitmaskTable,
    indicator_bitmap,
)
from repro.gen2.epc import EPC, random_epc_population
from tests.core.oracles import candidate_rows_reference

# Fig 9/10's six-bit population.
POPULATION = [
    EPC.from_bits("001110"),
    EPC.from_bits("010010"),
    EPC.from_bits("101100"),
    EPC.from_bits("110110"),
]


class TestIndicatorBitmap:
    def test_positions(self):
        v = indicator_bitmap(4, [1, 3])
        assert list(v) == [False, True, False, True]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            indicator_bitmap(4, [4])


class TestCandidateRows:
    def test_full_epc_rows_present(self):
        table = IndexedBitmaskTable(POPULATION)
        rows = table.candidate_rows([0, 1, 2])
        singles = [r for r in rows if r.covered_count == 1]
        covered = {int(np.flatnonzero(r.coverage)[0]) for r in singles}
        assert {0, 1, 2} <= covered

    def test_multi_target_masks_found(self):
        """Fig 9: targets 001110 and 010010 share '10' at pointer 4."""
        table = IndexedBitmaskTable(POPULATION)
        rows = table.candidate_rows([0, 1])
        multi = [
            r for r in rows if set(np.flatnonzero(r.coverage)) >= {0, 1}
        ]
        assert multi  # at least one shared-window mask exists

    def test_coverage_correctness(self):
        table = IndexedBitmaskTable(POPULATION)
        for row in table.candidate_rows([0, 1, 2]):
            expected = [row.bitmask.covers(epc) for epc in POPULATION]
            assert list(row.coverage) == expected

    def test_identical_coverage_merged(self):
        table = IndexedBitmaskTable(POPULATION)
        rows = table.candidate_rows([0, 1, 2])
        seen = set()
        for row in rows:
            key = row.coverage.tobytes()
            assert key not in seen
            seen.add(key)

    def test_pruning_matches_exhaustive_for_greedy_purposes(self):
        """Every multi-target coverage found exhaustively must also exist in
        the pruned table (single-target masks are dominated by full-EPC)."""
        epcs = random_epc_population(12, rng=3, length=16)
        targets = [0, 1, 2, 3]
        pruned = IndexedBitmaskTable(epcs, max_mask_length=16)
        full = candidate_rows_reference(
            epcs, targets, max_mask_length=16, include_dominated=True
        )
        pruned_covers = {
            row.coverage.tobytes() for row in pruned.candidate_rows(targets)
        }
        for row in full:
            n_targets_covered = sum(row.coverage[t] for t in targets)
            if n_targets_covered >= 2:
                assert row.coverage.tobytes() in pruned_covers

    def test_no_targets(self):
        table = IndexedBitmaskTable(POPULATION)
        assert len(table.candidate_rows([])) == 0

    def test_bad_target_index(self):
        table = IndexedBitmaskTable(POPULATION)
        with pytest.raises(IndexError):
            table.candidate_rows([7])


class TestPopulationUpdate:
    def test_no_change_detected(self):
        table = IndexedBitmaskTable(POPULATION)
        assert not table.update_population(list(POPULATION))

    def test_change_rebuilds(self):
        table = IndexedBitmaskTable(POPULATION)
        table.candidate_rows([0])
        new_population = POPULATION[:3]
        assert table.update_population(new_population)
        rows = table.candidate_rows([0])
        assert all(len(r.coverage) == 3 for r in rows)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            IndexedBitmaskTable([EPC.from_bits("10"), EPC.from_bits("100")])

    def test_invalid_max_length(self):
        with pytest.raises(ValueError):
            IndexedBitmaskTable(POPULATION, max_mask_length=0)

    @pytest.mark.parametrize("max_len", [64, 96])
    def test_windows_beyond_63_bits_rejected(self, max_len):
        """Windows of 64+ bits overflow the window cache; two 96-bit EPCs
        sharing a 70-bit prefix used to crash mid-plan."""
        prefix = (1 << 69) | 12345
        pair = [EPC((prefix << 26) | 1, 96), EPC((prefix << 26) | 2, 96)]
        with pytest.raises(ValueError, match=r"max_mask_length must be in \[1, 63\]"):
            IndexedBitmaskTable(pair, max_mask_length=max_len)
        table = IndexedBitmaskTable(pair, max_mask_length=63)
        assert len(table.candidate_rows([0, 1])) == 3
        windows = table._window_values(63)
        for pointer in range(96 - 63 + 1):
            assert int(windows[pointer, 0]) == pair[0].bit_slice(pointer, 63)
