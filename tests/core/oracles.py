"""Straightforward planner implementations kept as test oracles.

The production planner (``repro.core.bitmask.IndexedBitmaskTable.
candidate_rows`` plus ``repro.core.setcover.greedy_cover``) works on one
packed word matrix per plan.  These oracles spell the same algorithms out
one row at a time on bool arrays — a per-column window walk with a
coverage-keyed merge, and a greedy that rescans every row with a Python
loop — so the differential tests can hold the columnar code to them.
"""

from typing import Dict, List, Sequence

import numpy as np

from repro.core.bitmask import CandidateRow, indicator_bitmap
from repro.core.cost import CostModel
from repro.core.setcover import CoverSelection
from repro.gen2.epc import EPC
from repro.gen2.select import BitMask
from repro.obs.tracer import get_tracer
from repro.util.rng import SeedLike, make_rng


def _window_values(epcs: Sequence[EPC], length: int) -> np.ndarray:
    """(n, L - length + 1) int64 values of every length-bit window."""
    bits = np.array([[int(c) for c in e.to_bits()] for e in epcs], dtype=np.int64)
    powers = 1 << np.arange(length - 1, -1, -1, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(bits, length, axis=1)
    return windows @ powers


def candidate_rows_reference(
    epcs: Sequence[EPC],
    target_indices: Sequence[int],
    max_mask_length: int = 24,
    include_dominated: bool = False,
) -> List[CandidateRow]:
    """The per-row candidate walk: full-EPC rows, then every (length,
    pointer, value) window in ascending order, first coverage wins."""
    n = len(epcs)
    targets = sorted(set(int(i) for i in target_indices))
    if not targets:
        return []
    rows: List[CandidateRow] = []
    seen: Dict[bytes, int] = {}

    def add_row(bitmask: BitMask, coverage: np.ndarray) -> None:
        key = coverage.tobytes()
        if key not in seen:
            seen[key] = len(rows)
            rows.append(CandidateRow(bitmask, coverage))

    for t in targets:
        coverage = np.zeros(n, dtype=bool)
        coverage[t] = True
        add_row(BitMask.full_epc(epcs[t]), coverage)

    min_count = 1 if include_dominated else 2
    for length in range(1, min(max_mask_length, epcs[0].length) + 1):
        values = _window_values(epcs, length)
        for pointer in range(values.shape[1]):
            column = values[:, pointer]
            shared, counts = np.unique(column[targets], return_counts=True)
            for value in shared[counts >= min_count]:
                add_row(
                    BitMask(int(value), pointer, length), column == value
                )
    return rows


def greedy_cover_reference(
    candidates: Sequence[CandidateRow],
    target_indices: Sequence[int],
    population_size: int,
    cost_model: CostModel,
    rng: SeedLike = None,
) -> CoverSelection:
    """The greedy on bool arrays, rescanning every candidate each iteration."""
    gen = make_rng(rng)
    v = indicator_bitmap(population_size, target_indices)
    targets_mask = v.copy()
    n_targets = int(v.sum())
    if n_targets == 0:
        return CoverSelection([], [], 0.0, 0, 0, method="greedy")

    coverages = [row.coverage for row in candidates]
    prices = np.array(
        [cost_model.inventory_cost(row.covered_count) for row in candidates]
    )
    chosen: List[int] = []
    union = np.zeros(population_size, dtype=bool)

    tracer = get_tracer()
    traced = tracer.enabled
    while v.any():
        gains = np.array(
            [int((cov & v).sum()) for cov in coverages], dtype=float
        )
        if not gains.any():
            raise ValueError("targets remain that no candidate covers")
        ratios = gains / prices
        best = float(ratios.max())
        tied = np.flatnonzero(np.isclose(ratios, best))
        pick = int(gen.choice(tied))
        chosen.append(pick)
        union |= coverages[pick]
        v &= ~coverages[pick]
        if traced:
            tracer.event(
                "setcover.iteration",
                category="setcover",
                iteration=len(chosen),
                pick=pick,
                gain=int(gains[pick]),
                covered_count=candidates[pick].covered_count,
                n_tied=int(tied.size),
                remaining_targets=int(v.sum()),
            )

    counts = [candidates[i].covered_count for i in chosen]
    collateral = int((union & ~targets_mask).sum())
    return CoverSelection(
        bitmasks=[candidates[i].bitmask for i in chosen],
        covered_counts=counts,
        total_cost_s=cost_model.sweep_cost(counts),
        n_targets=n_targets,
        n_collateral=collateral,
        method="greedy",
    )
