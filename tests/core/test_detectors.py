"""Tests for the motion scorers of Fig 12."""

import numpy as np
import pytest

from repro.core.detectors import (
    UNSCORED,
    DifferencingScorer,
    MoGScorer,
    make_scorer,
)
from repro.util.circular import TWO_PI


class TestDifferencing:
    def test_first_reading_scores_zero(self):
        assert DifferencingScorer().score(1.0) == 0.0

    def test_scores_absolute_difference(self):
        scorer = DifferencingScorer()
        scorer.score(1.0)
        assert scorer.score(1.4) == pytest.approx(0.4)

    def test_circular_wrap(self):
        scorer = DifferencingScorer(circular=True)
        scorer.score(TWO_PI - 0.01)
        assert scorer.score(0.02) == pytest.approx(0.03)

    def test_linear_mode(self):
        scorer = DifferencingScorer(circular=False)
        scorer.score(-50.0)
        assert scorer.score(-48.0) == pytest.approx(2.0)


class TestMoG:
    def test_unscored_until_reliable(self):
        scorer = MoGScorer()
        assert scorer.score(1.0) == UNSCORED

    def test_low_score_when_stationary(self):
        rng = np.random.default_rng(0)
        scorer = MoGScorer()
        scores = [
            scorer.score(float(np.mod(1.0 + rng.normal(0, 0.1), TWO_PI)))
            for _ in range(300)
        ]
        finite = [s for s in scores[-50:] if s != UNSCORED]
        assert finite and np.median(finite) < 3.0

    def test_high_score_on_jump(self):
        rng = np.random.default_rng(0)
        scorer = MoGScorer()
        for _ in range(300):
            scorer.score(float(np.mod(1.0 + rng.normal(0, 0.1), TWO_PI)))
        assert scorer.score(3.5) > 3.0


class TestFactory:
    def test_kinds_and_signals(self):
        assert isinstance(make_scorer("mog", "phase"), MoGScorer)
        assert isinstance(
            make_scorer("differencing", "rss"), DifferencingScorer
        )

    def test_rss_scorer_is_linear(self):
        scorer = make_scorer("differencing", "rss")
        scorer.score(-50.0)
        assert scorer.score(-50.0 + TWO_PI) == pytest.approx(TWO_PI)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_scorer("kalman", "phase")

    def test_unknown_signal(self):
        with pytest.raises(ValueError):
            make_scorer("mog", "doppler")


class TestFusion:
    def test_unscored_until_any_model_matures(self):
        from repro.core.detectors import FusionScorer

        scorer = FusionScorer()
        assert scorer.score((1.0, -50.0)) == UNSCORED

    def test_stationary_low_moving_high(self):
        from repro.core.detectors import FusionScorer

        rng = np.random.default_rng(7)
        scorer = FusionScorer()
        for _ in range(300):
            scorer.score(
                (
                    float(np.mod(1.0 + rng.normal(0, 0.1), TWO_PI)),
                    float(-52.0 + rng.normal(0, 0.4)),
                )
            )
        quiet = scorer.score((1.0, -52.0))
        loud = scorer.score((3.0, -45.0))
        assert quiet < 3.0 < loud

    def test_rss_only_evidence_counts(self):
        """A re-orientation changes RSS but not phase: fusion still fires."""
        from repro.core.detectors import FusionScorer

        rng = np.random.default_rng(8)
        scorer = FusionScorer()
        for _ in range(300):
            scorer.score(
                (
                    float(np.mod(1.0 + rng.normal(0, 0.1), TWO_PI)),
                    float(-52.0 + rng.normal(0, 0.4)),
                )
            )
        assert scorer.score((1.0, -40.0)) > 3.0

    def test_factory(self):
        from repro.core.detectors import FusionScorer

        assert isinstance(make_scorer("fusion"), FusionScorer)
