"""FaultInjector: per-channel rates, determinism, and the strict no-op."""

import numpy as np
import pytest

from repro.faults import AntennaBlackout, FaultInjector, FaultPlan
from repro.gen2.epc import EPC
from repro.radio.measurement import TagObservation


def make_obs(i, t=0.0, antenna=0, phase=1.0):
    """A synthetic report for feeding the injector directly."""
    return TagObservation(
        epc=EPC(i % 65536, 16),
        time_s=t,
        phase_rad=phase,
        rss_dbm=-50.0,
        antenna_index=antenna,
        channel_index=0,
    )


def batch(n, t0=0.0, dt=0.01, antenna=0):
    return [make_obs(i, t=t0 + i * dt, antenna=antenna) for i in range(n)]


# -- strict no-op ------------------------------------------------------------


def test_zero_plan_is_strict_noop():
    """FaultPlan.none() returns the very same objects, in order."""
    injector = FaultInjector(FaultPlan.none(), seed=5)
    observations = batch(50)
    out = injector.apply_round(observations)
    assert len(out) == len(observations)
    assert all(a is b for a, b in zip(out, observations))
    assert injector.apply_round([]) == []
    assert injector.take_disconnect(0.0, 1e9) is None


def test_zero_plan_draws_no_randomness():
    """Channel streams stay untouched by a zero plan (bit-level guarantee)."""
    injector = FaultInjector(FaultPlan.none(), seed=5)
    before = {
        name: getattr(injector, name).bit_generator.state
        for name in (
            "_rng_loss",
            "_rng_burst",
            "_rng_phase",
            "_rng_duplicate",
            "_rng_delay",
            "_rng_reorder",
        )
    }
    for _ in range(5):
        injector.apply_round(batch(40))
    after = {
        name: getattr(injector, name).bit_generator.state
        for name in before
    }
    assert before == after


# -- statistical rates -------------------------------------------------------


def _loss_rate(plan, n=2000, seed=7):
    injector = FaultInjector(plan, seed=seed)
    out = injector.apply_round(batch(n))
    return 1.0 - len(out) / n


def test_iid_loss_rate_within_tolerance():
    """20% iid loss lands within +-0.04 of nominal over 2000 reports."""
    rate = _loss_rate(FaultPlan(report_loss=0.2))
    assert abs(rate - 0.2) < 0.04


def test_loss_extremes():
    assert _loss_rate(FaultPlan(report_loss=1.0)) == 1.0
    assert _loss_rate(FaultPlan(report_loss=0.0)) == 0.0


def test_duplicate_rate_within_tolerance():
    injector = FaultInjector(FaultPlan(duplicate=0.25), seed=7)
    n = 2000
    out = injector.apply_round(batch(n))
    rate = (len(out) - n) / n
    assert abs(rate - 0.25) < 0.04
    # Duplicates are delivered back-to-back with identical payloads.
    values = [o.epc.value for o in out]
    assert any(a == b for a, b in zip(values, values[1:]))


def test_phase_spike_rate_and_wrap():
    plan = FaultPlan(phase_spike=0.3, phase_spike_std_rad=2.0)
    injector = FaultInjector(plan, seed=7)
    observations = batch(2000)
    out = injector.apply_round(observations)
    assert len(out) == len(observations)  # spikes never drop reports
    changed = sum(
        1 for a, b in zip(observations, out) if a.phase_rad != b.phase_rad
    )
    assert abs(changed / len(observations) - 0.3) < 0.04
    assert all(0.0 <= o.phase_rad < 2 * np.pi for o in out)
    assert injector.metrics.value("faults.phase_spikes") == changed


def test_burst_losses_are_bursty():
    """Gilbert-Elliott drops cluster: mean run length ~= 1/burst_exit."""
    plan = FaultPlan(burst_enter=0.05, burst_exit=0.2)
    injector = FaultInjector(plan, seed=7)
    observations = batch(5000)
    out_ids = {id(o) for o in injector.apply_round(observations)}
    dropped = [id(o) not in out_ids for o in observations]
    runs = []
    current = 0
    for flag in dropped:
        if flag:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)
    assert runs, "no burst ever fired at enter=0.05 over 5000 reports"
    mean_run = float(np.mean(runs))
    # Geometric(exit=0.2) has mean 5; allow generous statistical slack.
    assert 3.0 < mean_run < 8.0
    assert injector.metrics.value("faults.dropped_burst") == sum(
        r for r in runs
    )


# -- structural faults -------------------------------------------------------


def test_blackout_drops_only_matching_antenna_and_window():
    plan = FaultPlan(blackouts=(AntennaBlackout(0, 1.0, 2.0),))
    injector = FaultInjector(plan, seed=7)
    inside = [make_obs(i, t=1.5, antenna=0) for i in range(5)]
    other_antenna = [make_obs(i, t=1.5, antenna=1) for i in range(5)]
    outside = [make_obs(i, t=2.5, antenna=0) for i in range(5)]
    out = injector.apply_round(inside + other_antenna + outside)
    assert out == other_antenna + outside
    assert injector.metrics.value("faults.dropped_blackout") == 5


def test_delay_holds_reports_until_next_batch():
    injector = FaultInjector(FaultPlan(delay=1.0), seed=7)
    first = batch(4, t0=0.0)
    second = batch(4, t0=1.0)
    assert injector.apply_round(first) == []
    # Round 1's held reports flush now; round 2's are held in turn.
    assert injector.apply_round(second) == first
    # An empty round delivers what is still held, once.
    assert injector.apply_round([]) == second
    assert injector.apply_round([]) == []
    assert injector.metrics.value("faults.delayed") == 8


def test_partial_delay_flushes_ahead_of_fresh_batch():
    injector = FaultInjector(FaultPlan(delay=0.5), seed=7)
    first = batch(40, t0=0.0)
    second = batch(40, t0=1.0)
    out1 = injector.apply_round(first)
    held_count = len(first) - len(out1)
    assert 0 < held_count < len(first)
    out2 = injector.apply_round(second)
    # Held reports from round 1 are delivered before round 2's survivors.
    delivered_old = [o for o in out2 if o.time_s < 1.0]
    assert len(delivered_old) == held_count
    assert out2[: len(delivered_old)] == delivered_old


def test_reorder_is_a_permutation():
    injector = FaultInjector(FaultPlan(reorder=1.0), seed=7)
    observations = batch(20)
    out = injector.apply_round(observations)
    assert out != observations  # 20 elements: identity is (astronomically) unlikely
    assert sorted(o.epc.value for o in out) == sorted(
        o.epc.value for o in observations
    )
    assert injector.metrics.value("faults.reordered_rounds") == 1


# -- disconnects -------------------------------------------------------------


def test_disconnects_fire_once_each_in_order():
    injector = FaultInjector(FaultPlan(disconnect_at_s=(2.0, 5.0)), seed=7)
    assert injector.take_disconnect(0.0, 1.0) is None
    assert injector.take_disconnect(1.0, 3.0) == 2.0
    assert injector.take_disconnect(1.0, 3.0) is None  # consumed
    assert injector.take_disconnect(3.0, 10.0) == 5.0
    assert injector.take_disconnect(0.0, 1e9) is None  # none left
    assert injector.metrics.value("faults.disconnects") == 2


def test_disconnect_window_is_half_open():
    injector = FaultInjector(FaultPlan(disconnect_at_s=(2.0,)), seed=7)
    assert injector.take_disconnect(2.0, 3.0) is None  # start exclusive
    assert injector.take_disconnect(1.0, 2.0) == 2.0  # end inclusive


# -- determinism and channel independence ------------------------------------


def test_same_seed_same_draws():
    plan = FaultPlan(report_loss=0.3, phase_spike=0.2, duplicate=0.1)
    a = FaultInjector(plan, seed=13)
    b = FaultInjector(plan, seed=13)
    obs = batch(500)
    out_a = a.apply_round(obs)
    out_b = b.apply_round(obs)
    assert out_a == out_b
    assert a.metrics.to_json() == b.metrics.to_json()


def test_different_seed_different_draws():
    plan = FaultPlan(report_loss=0.3)
    obs = batch(500)
    out_a = FaultInjector(plan, seed=13).apply_round(obs)
    out_b = FaultInjector(plan, seed=14).apply_round(obs)
    assert [o.epc.value for o in out_a] != [o.epc.value for o in out_b]


def test_channels_are_independent():
    """Enabling phase spikes must not change which reports get lost."""
    obs = batch(1000)
    lost_plain = {
        o.epc.value
        for o in FaultInjector(FaultPlan(report_loss=0.2), seed=13).apply_round(obs)
    }
    lost_with_spikes = {
        o.epc.value
        for o in FaultInjector(
            FaultPlan(report_loss=0.2, phase_spike=0.5), seed=13
        ).apply_round(obs)
    }
    assert lost_plain == lost_with_spikes


def test_metrics_conservation():
    """Every report is delivered once, dropped once or still held."""
    plan = FaultPlan(report_loss=0.2, duplicate=0.1, delay=0.1)
    injector = FaultInjector(plan, seed=13)
    for t0 in range(5):
        injector.apply_round(batch(200, t0=float(t0)))
    m = injector.metrics
    held = m.value("faults.held")
    assert held > 0
    assert m.value("faults.reports_in") + m.value("faults.duplicates") == (
        m.value("faults.reports_out") + m.value("faults.dropped_loss") + held
    )
    assert held <= m.value("faults.delayed")
