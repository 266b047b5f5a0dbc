"""Property-based tests for the Phase II planner (setcover + bitmask table).

``tests/test_properties.py`` covers cross-module invariants; this module
drills into the cover search itself: soundness of every chosen mask, the
collateral accounting, and cost monotonicity along the planner's two free
axes (mask-length budget and candidate-set growth).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.bitmask import IndexedBitmaskTable, indicator_bitmap
from repro.core.cost import CostModel
from repro.core.setcover import (
    exact_cover,
    greedy_cover,
    naive_selection,
    select_bitmasks,
)
from repro.gen2.epc import EPC

MODEL = CostModel(tau0_s=0.019, tau_bar_s=0.00018)

epc_values = st.integers(min_value=0, max_value=2**16 - 1)


@st.composite
def populations(draw, min_size=2, max_size=10):
    """Unique 16-bit EPC populations."""
    values = draw(
        st.lists(epc_values, min_size=min_size, max_size=max_size, unique=True)
    )
    return [EPC(v, 16) for v in values]


@st.composite
def cover_instances(draw, min_size=3, max_size=9, max_targets=4):
    """A population plus a non-empty prefix target set."""
    population = draw(populations(min_size=min_size, max_size=max_size))
    n_targets = draw(
        st.integers(min_value=1, max_value=min(max_targets, len(population)))
    )
    return population, list(range(n_targets))


# -- soundness ---------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(cover_instances())
def test_greedy_covers_every_target(instance):
    """Every target is covered by at least one chosen bitmask."""
    population, targets = instance
    table = IndexedBitmaskTable(population, max_mask_length=16)
    selection = greedy_cover(
        table.candidate_rows(targets), targets, len(population), MODEL, rng=3
    )
    for i in targets:
        assert any(m.covers(population[i]) for m in selection.bitmasks)


@settings(max_examples=50, deadline=None)
@given(cover_instances())
def test_no_chosen_mask_is_pure_collateral(instance):
    """Each chosen bitmask covers at least one target.

    The greedy's gain is |V_i & V|; a mask covering only non-targets has
    zero gain at every iteration and must never be selected.
    """
    population, targets = instance
    table = IndexedBitmaskTable(population, max_mask_length=16)
    selection = greedy_cover(
        table.candidate_rows(targets), targets, len(population), MODEL, rng=3
    )
    target_set = {population[i].value for i in targets}
    for mask in selection.bitmasks:
        covered = {e.value for e in population if mask.covers(e)}
        assert covered & target_set, f"mask {mask} covers no target"


@settings(max_examples=50, deadline=None)
@given(cover_instances())
def test_collateral_accounting_is_exact(instance):
    """n_collateral equals |union of chosen coverage minus targets|."""
    population, targets = instance
    table = IndexedBitmaskTable(population, max_mask_length=16)
    selection = greedy_cover(
        table.candidate_rows(targets), targets, len(population), MODEL, rng=3
    )
    union = np.zeros(len(population), dtype=bool)
    for mask in selection.bitmasks:
        union |= np.array([mask.covers(e) for e in population])
    expected = int((union & ~indicator_bitmap(len(population), targets)).sum())
    assert selection.n_collateral == expected
    assert selection.n_targets == len(targets)


# -- cost monotonicity -------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(cover_instances(max_size=7, max_targets=3))
def test_exact_cost_monotone_in_mask_length(instance):
    """Optimal cost never increases when the mask-length budget grows.

    A longer budget only *adds* candidate rows (every short window is still
    enumerable), so the exact optimum over the larger table is at most the
    optimum over the smaller one.
    """
    population, targets = instance
    costs = []
    for max_len in (4, 8, 16):
        table = IndexedBitmaskTable(population, max_mask_length=max_len)
        rows = table.candidate_rows(targets)
        if len(rows) > 18:
            return  # exact solver bound; instance too dense to compare
        costs.append(
            exact_cover(rows, targets, len(population), MODEL).total_cost_s
        )
    assert costs[1] <= costs[0] + 1e-12
    assert costs[2] <= costs[1] + 1e-12


@settings(max_examples=40, deadline=None)
@given(cover_instances())
def test_select_bitmasks_never_worse_than_naive(instance):
    """The paper's adopt-the-worst-option rule bounds the selection cost."""
    population, targets = instance
    table = IndexedBitmaskTable(population, max_mask_length=16)
    target_epcs = [population[i] for i in targets]
    selection = select_bitmasks(
        table.candidate_rows(targets),
        targets,
        target_epcs,
        len(population),
        MODEL,
        rng=3,
    )
    naive = naive_selection(target_epcs, MODEL)
    assert selection.total_cost_s <= naive.total_cost_s + 1e-12
    # And the reported cost is self-consistent with the chosen masks.
    recomputed = MODEL.sweep_cost(selection.covered_counts)
    assert abs(selection.total_cost_s - recomputed) < 1e-12


@settings(max_examples=25, deadline=None)
@given(cover_instances(max_size=7, max_targets=3))
def test_greedy_at_least_exact(instance):
    """Greedy cost is lower-bounded by the exact optimum."""
    population, targets = instance
    table = IndexedBitmaskTable(population, max_mask_length=8)
    rows = table.candidate_rows(targets)
    if len(rows) > 18:
        return
    greedy = greedy_cover(rows, targets, len(population), MODEL, rng=3)
    exact = exact_cover(rows, targets, len(population), MODEL)
    assert greedy.total_cost_s >= exact.total_cost_s - 1e-12


# -- indexed table -----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(cover_instances())
def test_full_epc_rows_cover_exactly_one_tag(instance):
    """Each target's full-EPC row covers that tag and nothing else."""
    population, targets = instance
    table = IndexedBitmaskTable(population, max_mask_length=16)
    rows = table.candidate_rows(targets)
    epc_length = population[0].length
    full_rows = [r for r in rows if r.bitmask.length == epc_length]
    # Full-EPC rows are added first, so the identical-coverage merge can
    # never absorb them: exactly one per target.
    assert len(full_rows) == len(targets)
    for row in full_rows:
        assert row.covered_count == 1
        (index,) = np.flatnonzero(row.coverage)
        assert row.bitmask.covers(population[index])


@settings(max_examples=40, deadline=None)
@given(cover_instances())
def test_candidate_rows_have_unique_coverage(instance):
    """The identical-coverage merge leaves no duplicate bitmaps."""
    population, targets = instance
    table = IndexedBitmaskTable(population, max_mask_length=16)
    rows = table.candidate_rows(targets)
    keys = {row.coverage.tobytes() for row in rows}
    assert len(keys) == len(rows)
