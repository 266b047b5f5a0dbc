"""Section 4.3 fidelity: self-learning under environment changes.

- "When do we learn Gaussian models?": a new multipath source makes a
  stationary tag look mobile for ~one cycle, then its new mode matures and
  the tag is classified stationary again — no cold start.
- "Why do we model immobility?": when a tag relocates, the stale models of
  its old position decay and are eventually evicted while the new position
  is learned.
"""

import numpy as np
import pytest

from repro.core.gmm import GaussianMixtureStack, GmmParams
from repro.util.circular import TWO_PI


def noisy(center, rng, std=0.08):
    return float(np.mod(center + rng.normal(0, std), TWO_PI))


class TestNewMultipathLearnedOnline:
    def test_one_burst_of_flags_then_stationary(self):
        """A new reflector shifts the phase to a new mode; after the mode
        matures the tag is quiet again (the paper's 'quick start')."""
        rng = np.random.default_rng(0)
        stack = GaussianMixtureStack()
        for _ in range(300):
            stack.update(noisy(1.0, rng))
        # Environment change: a cabinet arrives, phase now sits at 2.2 rad.
        flags = [
            not stack.update(noisy(2.2, rng)) for _ in range(300)
        ]
        assert all(flags[:5])  # initially misjudged as moving...
        assert not any(flags[-50:])  # ...then learned
        # And the old mode still vouches if the cabinet leaves again.
        assert stack.classify(1.0)

    def test_learning_speed_about_one_cycle(self):
        """~55 readings suffice (one 5 s cycle of intensive Phase II reads)."""
        rng = np.random.default_rng(1)
        stack = GaussianMixtureStack()
        for _ in range(300):
            stack.update(noisy(1.0, rng))
        flags = [
            not stack.update(noisy(2.2, rng)) for _ in range(120)
        ]
        first_quiet = flags.index(False)
        assert first_quiet <= 80


class TestRelocationEvictsStaleModels:
    def test_old_position_models_decay(self):
        rng = np.random.default_rng(2)
        stack = GaussianMixtureStack()
        for _ in range(300):
            stack.update(noisy(1.0, rng))
        old_weight = stack.sorted_modes()[0].weight
        # The tag is moved; its phase now lives at 4.0 rad for a long time.
        for _ in range(3000):
            stack.update(noisy(4.0, rng))
        old_modes = [
            m
            for m in stack.modes
            if abs(m.mean - 1.0) < 0.3
        ]
        if old_modes:  # either evicted entirely, or decayed far down
            assert old_modes[0].weight < old_weight / 2
        new_top = stack.sorted_modes()[0]
        assert abs(new_top.mean - 4.0) < 0.3

    def test_many_relocations_bounded_memory(self):
        rng = np.random.default_rng(3)
        params = GmmParams()
        stack = GaussianMixtureStack(params)
        for position in np.linspace(0.2, 6.0, 12):
            for _ in range(150):
                stack.update(noisy(float(position), rng))
        assert len(stack) <= params.max_modes
