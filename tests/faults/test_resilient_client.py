"""ResilientLLRPClient + FaultyReader end to end, incl. acceptance criteria.

The issue's acceptance scenarios live here:

- a seeded FaultPlan run is bit-reproducible (identical metrics JSON and
  observation traces for the same seed);
- under 20% report loss plus one mid-run disconnect, Tagwatch completes
  without exceptions and the metrics export shows retries/backoff occurred
  and IRR degraded gracefully;
- when the client exhausts retries (or the breaker opens), the cycle is
  marked degraded instead of crashing the middleware.
"""

import numpy as np
import pytest

from repro.core import TagwatchConfig, TagwatchMonitor
from repro.experiments.harness import build_lab
from repro.faults import FaultPlan
from repro.reader import CircuitOpenError, ReaderConnectionError, RetryPolicy
from repro.reader.resilience import ResilientLLRPClient

FAULT_CONFIG = TagwatchConfig(
    phase2_duration_s=0.5,
    min_phase1_fraction=0.5,
    population_grace_cycles=2,
)


def run_cycles(fault_plan, n_cycles=3, retry_policy=None, seed=23):
    """Build a (possibly faulted) lab, warm up, run cycles; return all state."""
    setup = build_lab(
        n_tags=10,
        n_mobile=1,
        seed=seed,
        partition=True,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
    )
    tagwatch = setup.tagwatch(FAULT_CONFIG)
    tagwatch.warm_up(4.0)
    monitor = TagwatchMonitor(window=n_cycles)
    results = []
    for _ in range(n_cycles):
        result = tagwatch.run_cycle()
        monitor.record(result)
        results.append(result)
    return setup, results, monitor


def trace_of(results):
    """Flat, rounded observation trace across all cycles."""
    rows = []
    for r in results:
        for obs in r.phase1_observations + r.phase2_observations:
            rows.append(
                (
                    obs.epc.value,
                    round(obs.time_s, 9),
                    round(obs.phase_rad, 9),
                    round(obs.rss_dbm, 9),
                    obs.antenna_index,
                    obs.channel_index,
                )
            )
    return rows


# -- retry behaviour ---------------------------------------------------------


def test_backoff_schedule_is_capped_exponential():
    policy = RetryPolicy(
        base_backoff_s=0.1,
        backoff_multiplier=2.0,
        max_backoff_s=0.5,
        jitter=0.0,
    )
    rng = np.random.default_rng(0)
    values = [policy.backoff_s(i, rng) for i in range(1, 6)]
    assert values == [0.1, 0.2, 0.4, 0.5, 0.5]
    with pytest.raises(ValueError):
        policy.backoff_s(0, rng)


def test_backoff_jitter_bounds():
    policy = RetryPolicy(base_backoff_s=1.0, jitter=0.25)
    rng = np.random.default_rng(0)
    samples = [policy.backoff_s(1, rng) for _ in range(200)]
    assert all(1.0 <= s <= 1.25 for s in samples)
    assert max(samples) > min(samples)


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_backoff_s=2.0, max_backoff_s=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError):
        RetryPolicy(breaker_threshold=0)


def test_disconnect_is_retried_and_survived():
    """A single scheduled disconnect costs a retry, not the run."""
    plan = FaultPlan(disconnect_at_s=(5.0,))
    setup, results, _ = run_cycles(plan)
    metrics = setup.metrics
    assert metrics.value("faults.disconnects") == 1
    assert metrics.value("client.connection_errors") == 1
    assert metrics.value("client.retries") == 1
    assert metrics.value("client.reconnects") >= 1
    assert metrics.histogram("client.backoff_s").count == 1
    assert metrics.histogram("client.backoff_s").total > 0
    # The operation was retried successfully: nothing was abandoned and no
    # cycle had to degrade.
    assert metrics.value("client.operations_abandoned", 0) == 0
    assert not any(r.degraded for r in results)


def test_exhausted_retries_degrade_the_cycle():
    """With one attempt and a wall of disconnects, cycles degrade gracefully."""
    plan = FaultPlan(disconnect_at_s=tuple(np.arange(4.1, 40.0, 0.2)))
    policy = RetryPolicy(
        max_attempts=1, breaker_threshold=1000, base_backoff_s=0.05
    )
    setup, results, _ = run_cycles(plan, retry_policy=policy)
    metrics = setup.metrics
    assert metrics.value("client.operations_abandoned") >= 1
    assert metrics.value("tagwatch.failed_operations") >= 1
    assert any(r.degraded for r in results)


def test_circuit_breaker_fails_fast():
    """After the threshold, operations are rejected without reader traffic."""
    plan = FaultPlan(disconnect_at_s=tuple(np.arange(4.1, 20.0, 0.05)))
    policy = RetryPolicy(
        max_attempts=1,
        breaker_threshold=2,
        breaker_cooldown_s=1000.0,
        base_backoff_s=0.05,
    )
    setup, results, _ = run_cycles(plan, retry_policy=policy)
    metrics = setup.metrics
    assert metrics.value("client.circuit_opened") >= 1
    assert metrics.value("client.breaker_rejections") >= 1
    assert any(r.degraded for r in results)


def test_circuit_open_error_is_a_connection_error():
    assert issubclass(CircuitOpenError, ReaderConnectionError)


def test_healthy_reader_draws_no_rng_and_keeps_clock():
    """With no faults, the resilient client is bit-inert."""
    setup, _, _ = run_cycles(FaultPlan.none())
    metrics = setup.metrics
    assert metrics.value("client.retries", 0) == 0
    assert metrics.value("client.reconnects", 0) == 0
    assert metrics.value("client.connection_errors", 0) == 0
    assert metrics.value("client.rospecs_completed") > 0


# -- acceptance: bit-reproducibility ----------------------------------------


def test_faulted_run_is_bit_reproducible():
    """Same seed, same plan: identical metrics JSON and observation traces."""
    plan = FaultPlan(report_loss=0.2, disconnect_at_s=(5.0,))
    setup_a, results_a, _ = run_cycles(plan)
    setup_b, results_b, _ = run_cycles(plan)
    assert setup_a.metrics.to_json() == setup_b.metrics.to_json()
    assert trace_of(results_a) == trace_of(results_b)


def test_noop_plan_matches_unfaulted_baseline():
    """Loss 0 through the full fault stack is identical to no stack at all."""
    faulted_setup, faulted_results, _ = run_cycles(FaultPlan.none())
    plain_setup, plain_results, _ = run_cycles(None)
    assert plain_setup.metrics is None  # plain lab: no fault machinery
    assert trace_of(faulted_results) == trace_of(plain_results)
    for a, b in zip(faulted_results, plain_results):
        assert a.target_epc_values == b.target_epc_values
        assert a.fallback == b.fallback
        assert round(a.phase2_end_s, 9) == round(b.phase2_end_s, 9)


# -- acceptance: graceful degradation ---------------------------------------


def test_lossy_disconnecting_run_completes_and_degrades_gracefully():
    """20% loss + one mid-run disconnect: no exceptions, graceful IRR."""
    plan = FaultPlan(report_loss=0.2, disconnect_at_s=(6.0,))
    setup, results, monitor = run_cycles(plan, n_cycles=4)
    metrics = setup.metrics

    # Completed without exceptions, all cycles recorded.
    assert len(results) == 4

    # Recovery machinery demonstrably ran.
    assert metrics.value("client.retries") >= 1
    assert metrics.histogram("client.backoff_s").total > 0
    assert metrics.value("faults.dropped_loss") > 0
    assert metrics.value("faults.disconnects") == 1

    # IRR degraded gracefully: lower than the clean run, but not zero.
    clean_setup, clean_results, clean_monitor = run_cycles(None, n_cycles=4)
    irr = monitor.irr_by_tag()
    clean_irr = clean_monitor.irr_by_tag()
    mean_irr = float(np.mean([irr.get(e.value, 0.0) for e in setup.epcs]))
    mean_clean = float(
        np.mean([clean_irr.get(e.value, 0.0) for e in clean_setup.epcs])
    )
    assert mean_irr > 0.0
    assert mean_irr <= mean_clean * 1.05
    # Every tag the clean run saw is still present in the monitor's books
    # (population grace keeps lossy tags from being evicted instantly).
    assert len(irr) > 0


def test_degradation_is_monotone_under_heavy_loss():
    """90% loss delivers far fewer phase I reads than 0% loss."""
    heavy_setup, heavy_results, _ = run_cycles(FaultPlan(report_loss=0.9))
    clean_setup, clean_results, _ = run_cycles(FaultPlan.none())
    heavy_reads = sum(len(r.phase1_observations) for r in heavy_results)
    clean_reads = sum(len(r.phase1_observations) for r in clean_results)
    assert heavy_reads < clean_reads * 0.5
    assert heavy_setup.metrics.value("faults.dropped_loss") > 0


def test_confidence_fallback_fires_under_heavy_loss():
    """Phase I confidence collapse falls back to read-everything mode."""
    setup, results, _ = run_cycles(FaultPlan(report_loss=0.97), n_cycles=4)
    metrics = setup.metrics
    fallbacks = metrics.value("tagwatch.confidence_fallbacks", 0)
    degraded = [r for r in results if r.degraded]
    # With 97% loss either the confidence guard or a degraded cycle (or
    # both) must have fired; a silent "all healthy" run would be a bug.
    assert fallbacks >= 1 or degraded


def test_shared_registry_between_injector_and_client():
    """Injector and client write into one registry (one export shows both)."""
    plan = FaultPlan(report_loss=0.2, disconnect_at_s=(5.0,))
    setup, _, _ = run_cycles(plan)
    names = set(setup.metrics.names())
    assert any(n.startswith("faults.") for n in names)
    assert any(n.startswith("client.") for n in names)
    client = setup.client()
    assert isinstance(client, ResilientLLRPClient)
    assert client.metrics is setup.metrics
