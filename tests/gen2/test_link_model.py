"""Link-model oracle: slot counts and round times, counted from engine logs.

Both checks take their expectations from outside the engine and use no
host time.

**Slot count.**  In S0 with the genie-aided frame (``IdealDFSA``: one slot
per tag, a fresh frame after every singleton), a round is a run of
independent attempts.  Each attempt examines slots until its first
singleton, or through the whole frame when it has none, and a singleton
reads a uniformly drawn tag.  So the round needs ``n H_n / pi`` attempts on
average (coupon collection over attempts that succeed with probability
``pi``), and by Wald's identity ``E_n = n H_n E[X] / pi`` slots, where
``X`` is one attempt's slot count.  Inclusion-exclusion over which slots
hold exactly one of ``n`` tags gives ``pi`` and ``E[X]`` exactly.  ``E_n``
tends to the paper's ``n e H_n`` (Definition 1) from below.  The engine's
mean over ``R`` rounds must lie within four standard errors of ``E_n`` at
every ``n`` of the grid.  The Fig 2 controller (Q-adaptive, initial Q 4)
has no closed form, and its mean runs 3-8% off ``n e H_n``: it is held to
within 10% of it.

**Round time.**  A round's duration is the start-up cost
(``round_overhead_s`` plus one Select and one Query) plus the profile's
durations weighted by the counts the engine reports: empty, single
(link-lost and duplicate reads included) and collided slots, QueryAdjusts,
and the Query that opens every later frame not opened by a QueryAdjust
(``n_frames - 1 - n_adjusts``, from the engine's round span).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.gen2.aloha import FixedQ, IdealDFSA, QAdaptive
from repro.gen2.inventory import InventoryEngine
from repro.gen2.timing import R420_PROFILE
from repro.obs.tracer import Tracer, use_tracer

N_GRID = (2, 5, 10, 20, 40)


def _harmonic(n):
    return sum(Fraction(1, i) for i in range(1, n + 1))


def _no_singleton(n, j):
    """P(none of ``j`` given slots of an ``n``-slot frame holds exactly one
    of ``n`` tags), by inclusion-exclusion over the slots that do."""
    return sum(
        (-1) ** i
        * math.comb(j, i)
        * Fraction(math.perm(n, i), n**i)
        * Fraction(n - i, n) ** (n - i)
        for i in range(j + 1)
    )


def ideal_s0_slots(n):
    """Exact mean slots per S0 round under the genie-aided frame."""
    attempt_slots = sum(_no_singleton(n, j) for j in range(n))
    success = 1 - _no_singleton(n, n)
    return float(n * _harmonic(n) * attempt_slots / success)


def paper_slots(n):
    """The paper's n e H_n."""
    return n * math.e * float(_harmonic(n))


def _slot_counts(strategy, n, rounds, seed):
    engine = InventoryEngine(R420_PROFILE, strategy, rng=seed)
    return np.array([engine.run_round(range(n)).n_slots for _ in range(rounds)])


def test_closed_form_tends_to_paper_model():
    ratios = [ideal_s0_slots(n) / paper_slots(n) for n in N_GRID[1:]]
    assert ratios == sorted(ratios)
    assert 0.89 < ratios[0] and ratios[-1] < 1.0
    assert ideal_s0_slots(1) == 1.0


@pytest.mark.parametrize("n", N_GRID)
def test_ideal_s0_slots_within_clt_bounds(n):
    rounds = 300
    slots = _slot_counts(IdealDFSA, n, rounds, seed=100 + n)
    stderr = slots.std(ddof=1) / math.sqrt(rounds)
    assert abs(slots.mean() - ideal_s0_slots(n)) <= 4 * stderr


@pytest.mark.parametrize("n", N_GRID[1:])
def test_q_adaptive_slots_near_paper_model(n):
    rounds = 300
    slots = _slot_counts(lambda: QAdaptive(initial_q=4), n, rounds, seed=200 + n)
    stderr = slots.std(ddof=1) / math.sqrt(rounds)
    bound = 0.10 * paper_slots(n) + 4 * stderr
    assert abs(slots.mean() - paper_slots(n)) <= bound


@pytest.mark.parametrize(
    "strategy,with_replacement,loss,deadline_s",
    [
        (lambda: QAdaptive(initial_q=4), True, 0.0, None),
        (lambda: QAdaptive(initial_q=0), True, 0.1, None),
        (lambda: QAdaptive(initial_q=6), False, 0.0, None),
        (lambda: FixedQ(3), True, 0.0, None),
        (lambda: QAdaptive(initial_q=4), True, 0.0, 0.025),
    ],
    ids=["fig02", "q0-loss", "s1", "fixed-q3", "deadline"],
)
def test_round_time_is_weighted_event_sum(
    strategy, with_replacement, loss, deadline_s
):
    """A round-detail tracer records ``n_frames`` and keeps rounds on the
    compiled kernel (frame detail would move them to the slot walk)."""
    timing = R420_PROFILE
    engine = InventoryEngine(
        timing,
        strategy,
        rng=7,
        with_replacement=with_replacement,
        read_loss_probability=loss,
    )
    logs = []
    with use_tracer(Tracer(detail="round")) as tracer:
        t = 0.0
        for n in (1, 5, 10, 20, 40) * 4:
            log = engine.run_round(
                range(n), start_time_s=t, max_duration_s=deadline_s
            )
            logs.append(log)
            t = log.end_time_s
    spans = tracer.spans("round")
    assert len(spans) == len(logs)
    total_queries = 0
    for log, span in zip(logs, spans):
        n_queries = span.args["n_frames"] - 1 - log.n_adjusts
        assert n_queries >= 0
        total_queries += n_queries
        expected = (
            timing.round_overhead_s
            + timing.select_duration
            + timing.query_duration
            + log.n_empty * timing.empty_slot_duration
            + log.n_single * timing.success_slot_duration
            + log.n_collision * timing.collision_slot_duration
            + log.n_adjusts * timing.query_adjust_duration
            + n_queries * timing.query_duration
        )
        assert log.duration_s == pytest.approx(expected, rel=1e-12, abs=1e-15)
    # Every weighted term is exercised somewhere in the run.
    assert total_queries > 0
    for count in ("n_empty", "n_single", "n_collision"):
        assert sum(getattr(log, count) for log in logs) > 0
    if deadline_s is not None:
        assert any(log.truncated for log in logs)
