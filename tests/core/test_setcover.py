"""Tests for the cost-weighted greedy set cover (Eqns 12-13)."""

import numpy as np
import pytest

from repro.core.bitmask import CandidateRow, IndexedBitmaskTable
from repro.core.cost import PAPER_R420, CostModel
from repro.core.setcover import (
    exact_cover,
    greedy_cover,
    naive_selection,
    select_bitmasks,
)
from repro.gen2.epc import EPC, random_epc_population
from repro.gen2.select import BitMask

# Fig 9's population: three targets, one non-target.
POPULATION = [
    EPC.from_bits("001110"),
    EPC.from_bits("010010"),
    EPC.from_bits("101100"),
    EPC.from_bits("110110"),
]
TARGETS = [0, 1, 2]


def candidates_for(population=POPULATION, targets=TARGETS, max_len=6):
    table = IndexedBitmaskTable(population, max_mask_length=max_len)
    return table.candidate_rows(targets)


class TestNaive:
    def test_one_mask_per_target(self):
        selection = naive_selection(
            [POPULATION[i] for i in TARGETS], PAPER_R420
        )
        assert selection.n_rounds == 3
        assert selection.n_collateral == 0
        assert selection.total_cost_s == pytest.approx(
            3 * PAPER_R420.inventory_cost(1)
        )


class TestGreedy:
    def test_covers_all_targets(self):
        selection = greedy_cover(
            candidates_for(), TARGETS, len(POPULATION), PAPER_R420, rng=1
        )
        covered = set()
        for mask in selection.bitmasks:
            covered |= {
                i for i, epc in enumerate(POPULATION) if mask.covers(epc)
            }
        assert set(TARGETS) <= covered

    def test_beats_naive_on_fig9(self):
        """Grouping targets under shared windows must undercut per-EPC
        masks whenever such windows exist."""
        greedy = greedy_cover(
            candidates_for(), TARGETS, len(POPULATION), PAPER_R420, rng=1
        )
        naive = naive_selection([POPULATION[i] for i in TARGETS], PAPER_R420)
        assert greedy.total_cost_s < naive.total_cost_s

    def test_empty_targets(self):
        selection = greedy_cover(
            candidates_for(), [], len(POPULATION), PAPER_R420
        )
        assert selection.bitmasks == []
        assert selection.total_cost_s == 0.0

    def test_uncoverable_raises(self):
        rows = [
            CandidateRow(
                BitMask.full_epc(POPULATION[0]),
                np.array([True, False, False, False]),
            )
        ]
        with pytest.raises(ValueError):
            greedy_cover(rows, [0, 1], len(POPULATION), PAPER_R420)

    def test_matches_exact_on_small_instances(self):
        """The greedy must stay close to optimal on random small instances
        (set cover greedy is H_n-approximate; these instances are tiny)."""
        for seed in range(5):
            epcs = random_epc_population(8, rng=seed, length=12)
            targets = [0, 1, 2]
            rows = IndexedBitmaskTable(epcs, max_mask_length=12).candidate_rows(
                targets
            )
            rows = rows[:16]
            greedy = greedy_cover(rows, targets, len(epcs), PAPER_R420, rng=1)
            exact = exact_cover(rows, targets, len(epcs), PAPER_R420)
            assert greedy.total_cost_s <= exact.total_cost_s * 2.0 + 1e-9


class TestSelectBitmasks:
    def test_never_worse_than_naive(self):
        for seed in range(4):
            epcs = random_epc_population(20, rng=seed)
            targets = [0, 1, 2, 3]
            rows = IndexedBitmaskTable(epcs).candidate_rows(targets)
            selection = select_bitmasks(
                rows,
                targets,
                [epcs[i] for i in targets],
                len(epcs),
                PAPER_R420,
                rng=seed,
            )
            naive = naive_selection([epcs[i] for i in targets], PAPER_R420)
            assert selection.total_cost_s <= naive.total_cost_s + 1e-12


class TestExact:
    def test_beats_fig9b_selection(self):
        """Fig 9(b) shows two clean 2-bit masks; with the paper's cost model
        the start-up cost dominates, so one 1-bit mask covering all three
        targets plus one collateral tag is cheaper still — the exact solver
        must find it (the paper's own point: "cost-effective selection may
        collaterally involve non-target tags")."""
        rows = candidates_for()
        exact = exact_cover(rows, TARGETS, len(POPULATION), PAPER_R420)
        fig9b_cost = 2 * PAPER_R420.inventory_cost(2)
        assert exact.total_cost_s <= fig9b_cost
        assert exact.n_rounds == 1
        assert exact.n_collateral == 1

    def test_rejects_large_instances(self):
        rows = list(candidates_for()) * 10
        with pytest.raises(ValueError):
            exact_cover(rows[:25], TARGETS, len(POPULATION), PAPER_R420)

    def test_empty_targets(self):
        exact = exact_cover(
            candidates_for(), [], len(POPULATION), PAPER_R420
        )
        assert exact.bitmasks == []
