"""Tests for the synthetic TrackPoint trace (Fig 3/4 claims)."""

import numpy as np
import pytest

from repro.traces.analysis import (
    analyze_trace,
    count_cdf,
    per_tag_counts,
    reads_per_second,
)
from repro.traces.trackpoint import (
    TraceEvent,
    TrackPointParams,
    generate_trackpoint_trace,
)


@pytest.fixture(scope="module")
def trace():
    return generate_trackpoint_trace(TrackPointParams(), rng=13)


@pytest.fixture(scope="module")
def stats(trace):
    return analyze_trace(trace)


class TestHeadlineClaims:
    def test_total_reads_near_paper(self, stats):
        assert 250_000 < stats.n_reads < 500_000  # paper: 367,536

    def test_tag_count_near_paper(self, stats):
        assert 480 < stats.n_tags < 560  # paper: 527

    def test_stuck_tag_dominates(self, stats):
        assert stats.top_tag_reads == 90_000  # paper: ~90,000

    def test_top_decile_claim(self, stats):
        assert stats.reads_at_top_10pct > 500  # paper: >655

    def test_top_quintile_claim(self, stats):
        assert stats.reads_at_top_20pct > 150  # paper: >205

    def test_conveyed_tags_starved(self, trace):
        params = TrackPointParams()
        counts = per_tag_counts(trace)
        conveyed = np.array(
            [counts.get(i, 0) for i in range(params.n_parked, params.n_tags)]
        )
        assert conveyed.mean() < 5  # paper: "typically read less than 5 times"

    def test_events_sorted(self, trace):
        times = [e.time_s for e in trace]
        assert times == sorted(times)

    def test_reproducible(self):
        a = generate_trackpoint_trace(TrackPointParams(), rng=5)
        b = generate_trackpoint_trace(TrackPointParams(), rng=5)
        assert len(a) == len(b)
        assert a[0] == b[0] and a[-1] == b[-1]


class TestAnalysis:
    def test_reads_per_second_binning(self, trace):
        centers, rates = reads_per_second(trace, bin_s=600.0)
        assert len(centers) == len(rates)
        assert rates.mean() == pytest.approx(
            analyze_trace(trace).reads_per_second, rel=0.1
        )

    def test_cdf_monotone(self, trace):
        counts, probs = count_cdf(trace)
        assert np.all(np.diff(counts) >= 0)
        assert probs[-1] == pytest.approx(1.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            analyze_trace([])
        with pytest.raises(ValueError):
            reads_per_second([])

    def test_bad_bin_rejected(self, trace):
        with pytest.raises(ValueError):
            reads_per_second(trace, bin_s=0.0)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrackPointParams(duration_s=0.0)
        with pytest.raises(ValueError):
            TrackPointParams(n_parked=5, n_hot=16)
        with pytest.raises(ValueError):
            TrackPointParams(stuck_tag_reads=0)
