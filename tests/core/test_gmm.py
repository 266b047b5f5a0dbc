"""Tests for the self-learning Gaussian-mixture immobility model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.gmm import GaussianMixtureStack, GaussianMode, GmmParams
from repro.util.circular import TWO_PI


def stationary_stream(center, std=0.1, n=300, seed=0):
    rng = np.random.default_rng(seed)
    return np.mod(center + rng.normal(0, std, n), TWO_PI)


class TestParams:
    def test_paper_defaults(self):
        p = GmmParams()
        assert p.max_modes == 8  # K
        assert p.learning_rate == 0.001  # alpha
        assert p.match_threshold == 3.0  # xi

    def test_validation(self):
        with pytest.raises(ValueError):
            GmmParams(max_modes=0)
        with pytest.raises(ValueError):
            GmmParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            GmmParams(match_threshold=0.0)
        with pytest.raises(ValueError):
            GmmParams(reliable_std=0.01, min_std=0.02)

    def test_rss_defaults_wider(self):
        assert GmmParams.for_rss().initial_std > GmmParams.for_phase().initial_std


class TestLearning:
    def test_converges_on_stationary_signal(self):
        stack = GaussianMixtureStack()
        results = [stack.update(v) for v in stationary_stream(1.0)]
        assert all(results[-50:])

    def test_learned_std_matches_noise(self):
        stack = GaussianMixtureStack()
        for v in stationary_stream(1.0, std=0.1):
            stack.update(v)
        top = stack.sorted_modes()[0]
        assert top.std == pytest.approx(0.1, rel=0.5)

    def test_initially_in_motion(self):
        """The paper: all tags are assumed moving until models mature."""
        stack = GaussianMixtureStack()
        assert not stack.update(1.0)

    def test_maturity_takes_tens_of_readings(self):
        """Fig 14: ~50-70 readings before a mode can vouch (alpha=0.001,
        reliable weight 0.05)."""
        stack = GaussianMixtureStack()
        results = [stack.update(v) for v in stationary_stream(1.0)]
        first = results.index(True)
        assert 30 <= first <= 90

    def test_movement_flagged_after_convergence(self):
        stack = GaussianMixtureStack()
        for v in stationary_stream(1.0):
            stack.update(v)
        assert not stack.update(1.0 + 1.5)

    def test_small_movement_within_threshold_not_flagged(self):
        stack = GaussianMixtureStack()
        for v in stationary_stream(1.0, std=0.1):
            stack.update(v)
        assert stack.update(1.05)

    def test_multimodal_learning(self):
        """Two alternating multipath states both become reliable modes."""
        rng = np.random.default_rng(1)
        stack = GaussianMixtureStack()
        # Runs of each state, as a person pausing at two positions creates.
        for block in range(40):
            center = 1.0 if block % 2 == 0 else 2.5
            for _ in range(10):
                stack.update(float(np.mod(center + rng.normal(0, 0.08), TWO_PI)))
        reliable = stack.reliable_modes()
        assert len(reliable) >= 2

    def test_wrap_around_cluster(self):
        """A cluster straddling 0/2*pi must behave like any other."""
        stack = GaussianMixtureStack()
        results = [stack.update(v) for v in stationary_stream(0.0, std=0.08)]
        assert all(results[-30:])
        top = stack.sorted_modes()[0]
        assert min(top.mean, TWO_PI - top.mean) < 0.3

    def test_sweeping_phase_never_trusted(self):
        """A periodically moving tag (turntable) revisits phases but never
        matches one mode consecutively: it must stay 'moving'."""
        rng = np.random.default_rng(2)
        stack = GaussianMixtureStack()
        flagged = []
        for i in range(2000):
            value = float(np.mod(i * 2.7 + rng.normal(0, 0.1), TWO_PI))
            flagged.append(stack.update(value))
        assert np.mean(flagged[-500:]) < 0.2


class TestModeManagement:
    def test_capacity_bounded(self):
        stack = GaussianMixtureStack(GmmParams(max_modes=4))
        rng = np.random.default_rng(3)
        for _ in range(200):
            stack.update(float(rng.uniform(0, TWO_PI)))
        assert len(stack) <= 4

    def test_eviction_drops_lowest_priority(self):
        stack = GaussianMixtureStack(GmmParams(max_modes=2))
        for v in stationary_stream(1.0, n=100):
            stack.update(v)
        strong = stack.sorted_modes()[0]
        stack.update(4.0)  # new mode evicts the weaker hypothesis
        assert strong in stack.modes

    def test_weight_update_follows_eqn_11(self):
        params = GmmParams(learning_rate=0.01)
        stack = GaussianMixtureStack(params)
        stack.update(1.0)
        w0 = stack.modes[0].weight
        stack.update(1.0)  # matches
        assert stack.modes[0].weight == pytest.approx(
            (1 - 0.01) * w0 + 0.01
        )

    def test_unmatched_weights_decay(self):
        params = GmmParams(learning_rate=0.01)
        stack = GaussianMixtureStack(params)
        stack.update(1.0)
        stack.update(4.0)  # no match: push second mode
        w_first = stack.modes[0].weight
        stack.update(4.0)  # matches second; first decays
        assert stack.modes[0].weight == pytest.approx((1 - 0.01) * w_first)

    def test_priority_ordering(self):
        a = GaussianMode(mean=0.0, std=0.1, weight=0.5)
        b = GaussianMode(mean=1.0, std=0.5, weight=0.5)
        assert a.priority > b.priority


class TestClassify:
    def test_non_mutating(self):
        stack = GaussianMixtureStack()
        for v in stationary_stream(1.0):
            stack.update(v)
        before = len(stack)
        assert stack.classify(1.0)
        assert not stack.classify(3.0)
        assert len(stack) == before


class TestRssMode:
    def test_linear_distance(self):
        stack = GaussianMixtureStack(GmmParams.for_rss(), circular=False)
        rng = np.random.default_rng(4)
        results = [
            stack.update(float(-52.0 + rng.normal(0, 0.4)))
            for _ in range(300)
        ]
        assert results[-1]
        assert not stack.update(-40.0)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=TWO_PI - 1e-9),
        min_size=1,
        max_size=60,
    )
)
def test_update_never_breaks_invariants(values):
    stack = GaussianMixtureStack()
    for value in values:
        stack.update(value)
        assert len(stack) <= stack.params.max_modes
        for mode in stack.modes:
            assert mode.std >= stack.params.min_std
            assert 0.0 <= mode.weight <= 1.0
            assert 0.0 <= mode.mean < TWO_PI + 1e-9
