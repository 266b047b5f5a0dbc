"""Differential properties: columnar fusion vs the scalar ``ingest`` fold.

The columnar path batches a whole reader's reports through one
vectorized arbitration-order ``lexsort`` instead of a per-report Python
loop; its contract is *byte-identical state* with a plain loop over
:meth:`FusionLayer.ingest` for every batch surface (``ingest_many``,
``ingest_rows``, ``merge``), any report order, any duplication, and any
interleaving of the three.  These properties drive both over that space
and compare every observable surface.
"""

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
