"""Differential properties: columnar fusion vs the scalar ``ingest`` fold.

The columnar path batches a whole reader's reports through one
vectorized arbitration-order ``lexsort`` instead of a per-report Python
loop; its contract is *byte-identical state* with a plain loop over
:meth:`FusionLayer.ingest` for every batch surface (``ingest_many``,
``ingest_rows``, ``merge``), any report order, any duplication, and any
interleaving of the three.  These properties drive both over that space
and compare every observable surface.
"""

import gc
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.site import fusion
from repro.site.fusion import FusionLayer, TagReport


@pytest.fixture(autouse=True, scope="module")
def _force_columnar_path():
    """Drop the columnar batch floor so small hypothesis batches take the
    vectorised path instead of falling back to the scalar loop."""
    original = fusion._COLUMNAR_MIN_BATCH
    fusion._COLUMNAR_MIN_BATCH = 2
    yield
    fusion._COLUMNAR_MIN_BATCH = original


# Small domains force key collisions (exact replays) alongside distinct
# reads of the same EPC — the two regimes the dedup must separate.
reports = st.builds(
    TagReport,
    epc_value=st.integers(min_value=1, max_value=6),
    reader_id=st.integers(min_value=0, max_value=3),
    time_s=st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]),
    antenna_index=st.integers(min_value=0, max_value=1),
    channel_index=st.integers(min_value=0, max_value=3),
    phase_rad=st.floats(0.0, 6.25, allow_nan=False),
    rss_dbm=st.floats(-80.0, -40.0, allow_nan=False),
)

report_batches = st.lists(reports, max_size=40)


def _state_bytes(layer):
    """Every observable surface of a layer, rendered to comparison bytes."""
    state = {
        "snapshot": layer.snapshot(),
        "reports": [r.to_row() for r in layer.reports()],
        "by_reader": {
            str(k): v for k, v in layer.reports_by_reader().items()
        },
        "epcs": layer.epc_values(),
    }
    return json.dumps(state, sort_keys=True).encode()


def _reference_fold(batches):
    """The scalar oracle: one ``ingest`` call per report, never a batch."""
    layer = FusionLayer()
    for batch in batches:
        for report in batch:
            layer.ingest(report)
    return layer


@settings(max_examples=80, deadline=None)
@given(report_batches)
def test_ingest_many_matches_reference(batch):
    """One columnar batch fuses to the exact scalar-ingest state."""
    columnar = FusionLayer()
    n_columnar = columnar.ingest_many(batch)
    reference = _reference_fold([batch])
    assert n_columnar == reference.n_reports
    assert _state_bytes(columnar) == _state_bytes(reference)


@settings(max_examples=60, deadline=None)
@given(st.lists(report_batches, max_size=4))
def test_chunked_ingest_rows_matches_reference(batches):
    """Row batches — the cross-worker wire format — fuse identically.

    Feeding the chunks sequentially exercises the cross-batch watermark
    dedup: later chunks can replay earlier chunks' reads at or below the
    per-reader time watermark.
    """
    columnar = FusionLayer()
    for batch in batches:
        columnar.ingest_rows([r.to_row() for r in batch])
    reference = FusionLayer()
    for batch in batches:
        for row in [r.to_row() for r in batch]:
            reference.ingest(TagReport.from_row(row))
    assert _state_bytes(columnar) == _state_bytes(reference)


@settings(max_examples=60, deadline=None)
@given(report_batches, report_batches, report_batches)
def test_interleaved_merge_matches_reference(a, b, c):
    """Interleaving ingest and whole-layer merges matches the scalar fold.

    The site runner's exact shape: per-reader batches ingested directly,
    checkpointed layers folded back in via ``merge`` — with replays across
    the two paths.
    """
    columnar = FusionLayer()
    columnar.ingest_many(a)
    columnar.merge(_reference_fold([b]))
    columnar.ingest_rows([r.to_row() for r in c])
    columnar.merge(_reference_fold([a]))  # pure replay
    reference = _reference_fold([a, b, c, a])
    assert _state_bytes(columnar) == _state_bytes(reference)


@settings(max_examples=40, deadline=None)
@given(report_batches, st.randoms(use_true_random=False))
def test_columnar_order_insensitive(batch, rng):
    """The columnar fold is commutative over batch order, like the scalar."""
    shuffled = list(batch)
    rng.shuffle(shuffled)
    a = FusionLayer()
    a.ingest_many(batch)
    b = FusionLayer()
    b.ingest_many(shuffled)
    assert _state_bytes(a) == _state_bytes(b)


@settings(max_examples=40, deadline=None)
@given(report_batches, report_batches)
def test_copy_is_identical_and_independent(batch, extra):
    """``copy`` reproduces the state exactly and shares none of it.

    ``SiteInvariantSuite``'s idempotence check folds replays into a copy
    and relies on the original staying untouched.
    """
    original = _reference_fold([batch])
    before = _state_bytes(original)
    duplicate = original.copy()
    assert _state_bytes(duplicate) == before
    duplicate.ingest_many(extra)
    assert _state_bytes(original) == before
    assert _state_bytes(duplicate) == _state_bytes(
        _reference_fold([batch, extra])
    )


def test_non_canonical_hex_rows_fold_to_one_epc():
    """``int(h, 16)`` reads "0ab", "AB" and "ab" as one EPC, so the
    columnar rows fold must group them as one, exactly as ``from_row``
    followed by scalar ``ingest`` does."""
    rows = [
        ["0ab", 0, 0.5, 0, 1, 1.0, -50.0],
        ["AB", 1, 0.25, 0, 2, 2.0, -51.0],
        ["ab", 2, 0.75, 1, 3, 3.0, -52.0],
        ["0AB", 2, 0.75, 1, 3, 3.0, -52.0],  # a replay of the row above
        ["c", 0, 0.5, 0, 1, 1.0, -50.0],
    ]
    columnar = FusionLayer()
    assert columnar.ingest_rows(rows) == 4
    reference = FusionLayer()
    for row in rows:
        reference.ingest(TagReport.from_row(row))
    assert columnar.epc_values() == [0xC, 0xAB]
    assert columnar.record(0xAB).n_reports == 3
    assert _state_bytes(columnar) == _state_bytes(reference)


@settings(max_examples=40, deadline=None)
@given(report_batches, report_batches)
def test_rows_fold_surfaces_match_reference(batch, extra):
    """After a rows fold, whose survivors are kept as keys alone, every
    reader of the fused set (``copy``, ``merge``, ``reports``, the
    invariant suite) sees what it sees after a plain ``ingest`` loop."""
    from repro.runtime.invariants import SiteInvariantSuite

    rows = [r.to_row() for r in batch]
    columnar = FusionLayer()
    columnar.ingest_rows(rows)
    reference = FusionLayer()
    for row in rows:
        reference.ingest(TagReport.from_row(row))
    before = _state_bytes(reference)
    assert _state_bytes(columnar) == before
    assert columnar.reports() == reference.reports()
    assert all(type(r.latest) is TagReport for r in columnar.records())
    truth = range(1, 7)
    assert SiteInvariantSuite(truth).check(columnar) == SiteInvariantSuite(
        truth
    ).check(reference)
    # ``copy`` then ``merge``: the idempotence check's own sequence.
    duplicate = columnar.copy()
    assert _state_bytes(duplicate) == before
    assert duplicate.merge(columnar) == 0
    assert _state_bytes(duplicate) == before
    # Merging either way: the copy takes new reports, the original
    # stays as it was, and a plain layer absorbs the rows-born set.
    assert duplicate.merge(_reference_fold([extra])) == reference.merge(
        _reference_fold([extra])
    )
    assert _state_bytes(duplicate) == _state_bytes(reference)
    assert _state_bytes(columnar) == before
    plain = _reference_fold([extra])
    plain.merge(columnar)
    assert _state_bytes(plain) == _state_bytes(reference)


def test_columnar_fold_restores_the_collector():
    """The columnar fold runs with the cyclic collector off and leaves it
    as it found it, also when the fold raises."""
    assert hasattr(FusionLayer._ingest_columns, "__wrapped__")
    seen = []

    def fold(fail):
        seen.append(gc.isenabled())
        if fail:
            raise RuntimeError("fold failed")
        return 0

    paused = fusion._collector_paused(fold)
    assert paused(False) == 0 and gc.isenabled()
    with pytest.raises(RuntimeError):
        paused(True)
    assert gc.isenabled()
    gc.disable()
    try:
        paused(False)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False, False, False]
