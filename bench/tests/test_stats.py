"""The percentile helper reports counts and refuses unsupported tails."""

from __future__ import annotations

import pytest

from stats import latency_summary, percentile


def test_p95_needs_two_hundred_samples():
    with pytest.raises(ValueError, match="200"):
        percentile(list(range(199)), 95)
    assert percentile(list(range(200)), 95) == pytest.approx(199 * 0.95)


def test_median_interpolates_between_ranks():
    assert percentile([float(i) for i in range(20)], 50) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)


def test_summary_reports_sample_count_and_refused_tail():
    summary = latency_summary([1.0] * 150)
    assert summary == {"n": 150, "p50": 1.0, "p95": None}
