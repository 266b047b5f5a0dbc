"""Cost-weighted set cover for bitmask selection (Section 5.3).

Implements the paper's greedy search verbatim: at each iteration pick the
candidate bitmask with the highest *relative gain*

    R(S_i) = |V_i & V| / C(|V_i|)               (Eqn 13)

where V is the indicator bitmap of still-uncovered targets, V_i the
candidate's coverage bitmap over the whole population, and C the inventory
cost model.  Iteration stops when V is empty.  The result is compared with
the naive plan (one full-EPC bitmask per target); if the greedy plan is not
cheaper, the naive plan is returned — the paper's "adopt the worst option"
rule, which also bounds the approximation.

The solver works on one columnar candidate table per plan (see
``core.bitmask``): coverage packed 64 tags per ``uint64`` word.  Each
iteration is a vectorised full rescan — one popcount of ``words & V`` over
the whole matrix — so the search is the reference algorithm itself, with
no incremental bookkeeping to keep in step with it.

An exact exponential solver is provided for small instances; the tests use
it to bound the greedy's optimality gap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.bitmask import (
    CandidateRow,
    CandidateTable,
    indicator_bitmap,
    pack_indices,
    pack_rows,
)
from repro.core.cost import CostModel
from repro.gen2.epc import EPC
from repro.gen2.select import BitMask
from repro.obs.tracer import get_tracer
from repro.util.rng import SeedLike, make_rng


@dataclass
class CoverSelection:
    """A chosen set of bitmasks plus its predicted cost and coverage."""

    bitmasks: List[BitMask]
    covered_counts: List[int]  # |V_i| per chosen bitmask
    total_cost_s: float
    n_targets: int
    n_collateral: int  # non-target tags swept along
    method: str = "greedy"

    @property
    def n_rounds(self) -> int:
        return len(self.bitmasks)


def naive_selection(
    target_epcs: Sequence[EPC], cost_model: CostModel
) -> CoverSelection:
    """The naive baseline: each target's full EPC as its own bitmask."""
    bitmasks = [BitMask.full_epc(epc) for epc in target_epcs]
    counts = [1] * len(bitmasks)
    return CoverSelection(
        bitmasks=bitmasks,
        covered_counts=counts,
        total_cost_s=cost_model.sweep_cost(counts),
        n_targets=len(bitmasks),
        n_collateral=0,
        method="naive",
    )


def greedy_cover(
    candidates: Sequence[CandidateRow],
    target_indices: Sequence[int],
    population_size: int,
    cost_model: CostModel,
    rng: SeedLike = None,
) -> CoverSelection:
    """The paper's greedy relative-gain search (Steps 1-4 of Section 5.3).

    Every iteration rescans the whole table: one popcount over the packed
    word matrix gives every gain, ties are ``np.isclose(ratios, best)``
    and one ``gen.choice`` draw picks among them.

    Raises ``ValueError`` if some target is not covered by any candidate
    (cannot happen when the table includes full-EPC rows).
    """
    gen = make_rng(rng)
    targets = pack_rows(indicator_bitmap(population_size, target_indices)[None])[0]
    n_targets = int(np.bitwise_count(targets).sum())
    if n_targets == 0:
        return CoverSelection([], [], 0.0, 0, 0, method="greedy")

    table = CandidateTable.of(candidates, population_size)
    words = table.words
    counts = table.covered_counts
    # One price per distinct covered count, not per row.
    price_of = np.zeros(int(counts.max(initial=0)) + 1)
    for c in np.flatnonzero(np.bincount(counts)).tolist():
        price_of[c] = cost_model.inventory_cost(c)
    prices = price_of[counts]
    chosen: List[int] = []
    v = targets.copy()

    tracer = get_tracer()
    traced = tracer.enabled
    while v.any():
        gains = np.bitwise_count(words & v).sum(axis=1)
        if not gains.any():
            raise ValueError("targets remain that no candidate covers")
        ratios = gains / prices
        best = float(ratios.max())
        # Resolve draws by random selection, as the paper specifies.
        tied = np.flatnonzero(np.isclose(ratios, best))
        pick = int(gen.choice(tied))
        chosen.append(pick)
        v &= ~words[pick]
        if traced:
            # Anchored to the enclosing span's start: the search is pure
            # CPU, so no simulated time passes between iterations.
            tracer.event(
                "setcover.iteration",
                category="setcover",
                iteration=len(chosen),
                pick=pick,
                gain=int(gains[pick]),
                covered_count=int(counts[pick]),
                n_tied=int(tied.size),
                remaining_targets=int(np.bitwise_count(v).sum()),
            )

    union = np.bitwise_or.reduce(words[chosen], axis=0)
    chosen_counts = [int(counts[i]) for i in chosen]
    return CoverSelection(
        bitmasks=[table.bitmask(i) for i in chosen],
        covered_counts=chosen_counts,
        total_cost_s=cost_model.sweep_cost(chosen_counts),
        n_targets=n_targets,
        n_collateral=int(np.bitwise_count(union & ~targets).sum()),
        method="greedy",
    )


def select_bitmasks(
    candidates: Sequence[CandidateRow],
    target_indices: Sequence[int],
    target_epcs: Sequence[EPC],
    population_size: int,
    cost_model: CostModel,
    rng: SeedLike = None,
) -> CoverSelection:
    """Greedy search with the paper's fall-back to the naive worst case."""
    greedy = greedy_cover(
        candidates, target_indices, population_size, cost_model, rng
    )
    naive = naive_selection(target_epcs, cost_model)
    return greedy if greedy.total_cost_s < naive.total_cost_s else naive


def exact_cover(
    candidates: Sequence[CandidateRow],
    target_indices: Sequence[int],
    population_size: int,
    cost_model: CostModel,
    max_subset_size: Optional[int] = None,
) -> CoverSelection:
    """Optimal selection by exhaustive search (small instances only).

    Used by tests to measure the greedy's gap; complexity is exponential in
    the candidate count, so callers should keep it below ~20 rows.
    """
    if len(candidates) > 18:
        raise ValueError(
            f"exact solver limited to 18 candidates, got {len(candidates)}"
        )
    v = pack_indices(population_size, target_indices)
    n_targets = v.bit_count()
    table = CandidateTable.of(candidates, population_size)
    packed = [int.from_bytes(row.tobytes(), "little") for row in table.words]
    row_counts = table.covered_counts.tolist()
    best: Optional[CoverSelection] = None
    limit = max_subset_size or len(candidates)
    # All subset sizes must be enumerated: a larger selection of cheap rows
    # can undercut a smaller selection of expensive ones.
    for size in range(0 if n_targets == 0 else 1, limit + 1):
        for combo in itertools.combinations(range(len(candidates)), size):
            union = 0
            for i in combo:
                union |= packed[i]
            if not v & ~union:
                counts = [row_counts[i] for i in combo]
                cost = cost_model.sweep_cost(counts)
                if best is None or cost < best.total_cost_s:
                    best = CoverSelection(
                        bitmasks=[table.bitmask(i) for i in combo],
                        covered_counts=counts,
                        total_cost_s=cost,
                        n_targets=n_targets,
                        n_collateral=(union & ~v).bit_count(),
                        method="exact",
                    )
    if best is None:
        if n_targets == 0:
            return CoverSelection([], [], 0.0, 0, 0, method="exact")
        raise ValueError("no feasible cover exists")
    return best
