"""Closed-form oracle of the motion assessor's learning step.

A new mode enters with weight ``w0`` (``initial_weight``), and each match
moves a weight ``w`` to ``(1 - alpha) w + alpha``.  After ``k`` matches a
mode therefore weighs ``1 - (1 - w0)(1 - alpha)^k``.  ``k*`` is the
smallest ``k`` at which that reaches ``reliable_weight``.

A reading's verdict uses its mode's state *before* the reading's own
update, and the first reading only creates the mode.  So on a stream whose
readings all match one mode, reading ``k* + 2`` (counting from 1) is the
first a mode with ``k*`` matches can vouch for.  The tightness and run
conditions hold long before that on a N(mu, 0.1 rad) stream (0.1 rad is the
simulator's phase noise).  A reading that misses the young mode (it starts
at ``initial_std`` and shrinks) starts a second mode and costs the first
one a match, so the verdict may come a few readings late, never early.
"""

import numpy as np
import pytest

from repro.core.gmm import GaussianMixtureStack, GmmParams
from repro.core.motion import MotionAssessor
from repro.gen2.epc import random_epc_population
from repro.radio.measurement import TagObservation
from repro.util.circular import TWO_PI

#: Readings the first verdict may come after ``k* + 2``.
LATE_WINDOW = 3


def weight_after(params: GmmParams, k: int) -> float:
    """A mode's weight after ``k`` matches."""
    return 1.0 - (1.0 - params.initial_weight) * (
        1.0 - params.learning_rate
    ) ** k


def learning_step(params: GmmParams) -> int:
    """k*: the fewest matches that bring a new mode to ``reliable_weight``."""
    k = 0
    while weight_after(params, k) < params.reliable_weight:
        k += 1
    return k


def _stream(seed, mu, n=150, std=0.1):
    rng = np.random.default_rng(seed)
    return np.mod(rng.normal(mu, std, n), TWO_PI).tolist()


#: (seed, mean): means across the circle, two of them astride the 0/2pi wrap.
STREAMS = [(seed, mu) for seed, mu in enumerate((0.02, 1.0, 2.5, 3.9, 5.3, 6.27))]


def test_learning_step_from_params():
    params = GmmParams.for_phase()
    k = learning_step(params)
    assert weight_after(params, k - 1) < params.reliable_weight
    assert weight_after(params, k) >= params.reliable_weight
    assert k > params.reliable_run  # the weight, not the run, sets the step


@pytest.mark.parametrize("seed,mu", STREAMS)
def test_first_stationary_verdict_follows_learning_step(seed, mu):
    params = GmmParams.for_phase()
    first = learning_step(params) + 2
    stack = GaussianMixtureStack(params)
    verdicts = [stack.update(value) for value in _stream(seed, mu)]
    assert first <= verdicts.index(True) + 1 <= first + LATE_WINDOW


@pytest.mark.parametrize("seed,mu", STREAMS)
def test_assessor_verdicts_follow_learning_step(seed, mu):
    """The assessor's batched update lands on the same reading."""
    params = GmmParams.for_phase()
    epc = random_epc_population(1, rng=seed)[0]
    observations = [
        TagObservation(epc, 0.01 * i, phase, -50.0, 0, 0)
        for i, phase in enumerate(_stream(seed, mu))
    ]
    verdicts = MotionAssessor(params).observe_all(observations)
    stack = GaussianMixtureStack(params)
    assert verdicts == [stack.update(obs.phase_rad) for obs in observations]
    first = learning_step(params) + 2
    assert first <= verdicts.index(True) + 1 <= first + LATE_WINDOW


def test_learning_step_moves_with_params():
    """k* is read from the parameters, not fixed: a faster rate or a lower
    bar brings the first verdict forward to the new k* + 2."""
    params = GmmParams.for_phase(learning_rate=0.002, reliable_weight=0.04)
    k = learning_step(params)
    assert params.reliable_run < k < learning_step(GmmParams.for_phase())
    stack = GaussianMixtureStack(params)
    verdicts = [stack.update(value) for value in _stream(0, 2.0)]
    assert k + 2 <= verdicts.index(True) + 1 <= k + 2 + LATE_WINDOW
