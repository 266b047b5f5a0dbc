"""Differential tests: the columnar planner vs the per-row oracles.

``greedy_cover`` (vectorised rescan over the packed word matrix) must be
bit-for-bit the same search as ``greedy_cover_reference`` (bool arrays, a
Python loop over rows): same picks in the same order, same tie-break draws
(hence the same RNG stream position), same trace events, same cost and
collateral.  ``IndexedBitmaskTable.candidate_rows`` must emit exactly the
rows of ``candidate_rows_reference``, in order.  Hypothesis drives both
pairs over random populations and target sets and compares all of it.  The
packed representation itself is checked via pack/unpack round-trips, and
the packed ``exact_cover`` against a bool-mask reimplementation.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import bitmask
from repro.core.bitmask import (
    IndexedBitmaskTable,
    indicator_bitmap,
    pack_bitmap,
    pack_indices,
    unpack_bitmap,
)
from repro.core.cost import CostModel
from repro.core.setcover import exact_cover, greedy_cover
from repro.gen2.epc import EPC, random_epc_population
from repro.obs.tracer import Tracer, use_tracer
from tests.core.oracles import candidate_rows_reference, greedy_cover_reference

MODEL = CostModel(tau0_s=0.019, tau_bar_s=0.00018)


@st.composite
def cover_instances(draw, min_size=2, max_size=24):
    """A unique-EPC population plus a non-empty target subset."""
    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**24 - 1),
            min_size=min_size,
            max_size=max_size,
            unique=True,
        )
    )
    population = [EPC(v, 24) for v in values]
    n_targets = draw(st.integers(min_value=1, max_value=len(population)))
    return population, list(range(n_targets))


def _run_traced(solver, candidates, targets, n, rng):
    tracer = Tracer(detail="round")
    with use_tracer(tracer):
        selection = solver(candidates, targets, n, MODEL, rng=rng)
    events = [
        (e.name, tuple(sorted(e.args.items())))
        for e in tracer.events("setcover.iteration")
    ]
    return selection, events


@settings(max_examples=50, deadline=None)
@given(instance=cover_instances(), seed=st.integers(0, 2**31 - 1))
def test_greedy_matches_reference(instance, seed):
    population, targets = instance
    table = IndexedBitmaskTable(population, max_mask_length=12)
    candidates = table.candidate_rows(targets)
    n = len(population)

    _assert_same_search(candidates, list(candidates), targets, n, seed)


def _assert_same_search(candidates, oracle_rows, targets, n, seed):
    """``greedy_cover`` on ``candidates`` and the oracle on
    ``oracle_rows`` agree on the plan, the trace and the RNG position."""
    gen_a = np.random.default_rng(seed)
    gen_b = np.random.default_rng(seed)
    fast, fast_events = _run_traced(greedy_cover, candidates, targets, n, gen_a)
    dense, dense_events = _run_traced(
        greedy_cover_reference, oracle_rows, targets, n, gen_b
    )

    assert [
        (b.mask, b.pointer, b.length) for b in fast.bitmasks
    ] == [(b.mask, b.pointer, b.length) for b in dense.bitmasks]
    assert fast.covered_counts == dense.covered_counts
    assert fast.total_cost_s == dense.total_cost_s
    assert fast.n_targets == dense.n_targets
    assert fast.n_collateral == dense.n_collateral
    assert fast_events == dense_events
    # Same number of tie-break draws consumed: both generators must sit at
    # the same stream position afterwards.
    assert gen_a.integers(0, 2**32, size=4).tolist() == gen_b.integers(
        0, 2**32, size=4
    ).tolist()


def _row_keys(rows):
    return [
        (r.bitmask.mask, r.bitmask.pointer, r.bitmask.length, r.coverage.tobytes())
        for r in rows
    ]


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 63, 64, 65, 130]),
    data=st.data(),
)
def test_candidate_rows_match_per_row_walk(n, data):
    """Same (mask, pointer, length, coverage) rows, in the same order, on
    populations whose packed words cross 64-tag boundaries."""
    seed = data.draw(st.integers(0, 2**31 - 1))
    population = random_epc_population(n, rng=seed, length=16)
    targets = data.draw(
        st.lists(st.integers(0, n - 1), min_size=0, max_size=min(n, 40))
    )
    max_len = data.draw(st.integers(1, 16))
    table = IndexedBitmaskTable(population, max_mask_length=max_len)
    rows = table.candidate_rows(targets)
    oracle = candidate_rows_reference(population, targets, max_len)
    assert len(rows) == len(oracle)
    assert _row_keys(rows) == _row_keys(oracle)
    assert _row_keys(rows[1:3]) == _row_keys(oracle[1:3])
    assert rows.covered_counts.tolist() == [r.covered_count for r in oracle]


def test_candidate_rows_survive_hash_collisions(monkeypatch):
    """With every row hashed alike, the merge falls back to grouping on the
    words themselves and still keeps the first row of each coverage."""
    monkeypatch.setattr(
        bitmask, "_row_hashes", lambda words: np.zeros(len(words), np.uint64)
    )
    population = random_epc_population(130, rng=4, length=16)
    targets = list(range(0, 130, 3))
    table = IndexedBitmaskTable(population, max_mask_length=12)
    oracle = candidate_rows_reference(population, targets, 12)
    assert _row_keys(table.candidate_rows(targets)) == _row_keys(oracle)


def test_large_instance_matches_oracles():
    """1k tags, 200 targets, ~22k candidates: the planner's table, plan,
    trace events and RNG position equal the per-row oracles'."""
    population = random_epc_population(1000, rng=5)
    targets = list(range(0, 1000, 5))
    rows = IndexedBitmaskTable(population).candidate_rows(targets)
    oracle = candidate_rows_reference(population, targets)
    assert 20_000 < len(rows) < 24_000
    assert _row_keys(rows) == _row_keys(oracle)
    _assert_same_search(rows, oracle, targets, len(population), seed=11)


@settings(max_examples=100, deadline=None)
@given(
    bits=st.lists(st.booleans(), min_size=0, max_size=200),
)
def test_pack_unpack_roundtrip(bits):
    mask = np.array(bits, dtype=bool)
    packed = pack_bitmap(mask)
    assert packed.bit_count() == int(mask.sum())
    assert np.array_equal(unpack_bitmap(packed, mask.size), mask)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=150),
    data=st.data(),
)
def test_pack_indices_matches_indicator(n, data):
    indices = data.draw(
        st.lists(st.integers(0, n - 1), min_size=0, max_size=n, unique=True)
    )
    packed = pack_indices(n, indices)
    assert packed == pack_bitmap(indicator_bitmap(n, indices))


def _exact_cover_bool(candidates, target_indices, population_size, model):
    """Reimplementation of exact_cover over bool masks (test oracle)."""
    v = indicator_bitmap(population_size, target_indices)
    best = None
    for size in range(0 if not v.any() else 1, len(candidates) + 1):
        for combo in itertools.combinations(range(len(candidates)), size):
            union = np.zeros(population_size, dtype=bool)
            for i in combo:
                union |= candidates[i].coverage
            if not (v & ~union).any():
                counts = [candidates[i].covered_count for i in combo]
                cost = model.sweep_cost(counts)
                if best is None or cost < best[0]:
                    best = (cost, combo, int((union & ~v).sum()))
    return best


@settings(max_examples=25, deadline=None)
@given(instance=cover_instances(min_size=2, max_size=8))
def test_exact_cover_packed_matches_bool(instance):
    population, targets = instance
    table = IndexedBitmaskTable(population, max_mask_length=8)
    candidates = table.candidate_rows(targets)[:10]
    # Targets outside the truncated candidate set make the instance
    # infeasible; full-EPC rows come first, so keep targets they cover.
    covered = np.zeros(len(population), dtype=bool)
    for row in candidates:
        covered |= row.coverage
    targets = [t for t in targets if covered[t]]
    if not targets:
        return
    packed = exact_cover(candidates, targets, len(population), MODEL)
    oracle = _exact_cover_bool(candidates, targets, len(population), MODEL)
    assert oracle is not None
    cost, combo, collateral = oracle
    assert packed.total_cost_s == cost
    assert packed.n_collateral == collateral
    assert len(packed.bitmasks) == len(combo)
