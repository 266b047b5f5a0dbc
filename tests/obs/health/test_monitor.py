"""HealthMonitor / SiteHealthMonitor unit tests on synthetic cycles."""

from types import SimpleNamespace

import pytest

from repro.obs.health.monitor import (
    HealthMonitor,
    HealthPolicy,
    SiteHealthMonitor,
    default_slos,
    site_slos,
)
from repro.obs.health.recorder import FlightRecorder
from repro.util.metrics import MetricsRegistry


def obs(value):
    return SimpleNamespace(epc=SimpleNamespace(value=value))


def cycle(index, t0, reads=(), duration=1.0, degraded=False, fallback=False):
    """A minimal CycleResult stand-in carrying what the monitor touches."""
    return SimpleNamespace(
        index=index,
        phase1_observations=[obs(v) for v in reads],
        phase2_observations=[],
        assessments={},
        target_epc_values=set(),
        plan=None,
        fallback=fallback,
        degraded=degraded,
        assessment_wall_s=0.0,
        scheduling_wall_s=0.0,
        phase1_start_s=t0,
        phase1_end_s=t0 + duration / 2,
        phase2_end_s=t0 + duration,
        cycle_duration_s=duration,
    )


def monitor(**kwargs):
    kwargs.setdefault("policy", HealthPolicy(irr_floor_hz=2.0))
    return HealthMonitor(**kwargs)


class TestPolicyValidation:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            HealthPolicy(irr_floor_hz=0.0)
        with pytest.raises(ValueError):
            HealthPolicy(staleness_ceiling_cycles=0)
        with pytest.raises(ValueError):
            HealthPolicy(recovery_ceiling_s=0.0)
        with pytest.raises(ValueError):
            HealthPolicy(redundancy_budget=0.5)
        with pytest.raises(ValueError):
            HealthPolicy(window=0)
        with pytest.raises(ValueError):
            HealthPolicy(coverage_floor=0.0)
        with pytest.raises(ValueError):
            HealthPolicy(coverage_floor=1.5)
        with pytest.raises(ValueError):
            HealthPolicy(failover_ceiling_s=0.0)

    def test_default_slo_sets(self):
        assert {s.name for s in default_slos()} == {
            "irr_floor", "staleness_p99", "recovery_time",
        }
        assert {s.name for s in site_slos()} == {
            "fusion_redundancy", "failover_time", "coverage_floor",
        }


class TestIrrFloor:
    def test_slow_cycle_records_an_error(self):
        health = monitor()
        health.observe_cycle(cycle(0, 0.0, reads=(1, 2, 3, 4)))  # 4 Hz: good
        health.observe_cycle(cycle(1, 1.0, reads=(1,)))  # 1 Hz: error
        tracker = health.engine.trackers["irr_floor"]
        assert tracker.n_observations == 2
        assert tracker.n_errors == 1


class TestStaleness:
    WATCH = (7,)

    def test_unread_watch_tag_goes_stale_then_reads_reset(self):
        health = monitor(watch_epcs=self.WATCH)
        tracker = health.engine.trackers["staleness_p99"]
        for i in range(4):  # ceiling is 3 healthy unread cycles
            health.observe_cycle(cycle(i, float(i), reads=(1, 2, 3, 4)))
        assert tracker.n_errors == 1
        health.observe_cycle(cycle(4, 4.0, reads=(7, 1, 2, 3)))
        assert health.staleness.counts[7] == 0
        assert tracker.n_errors == 1  # reading it stopped the bleeding

    def test_unhealthy_cycles_hold_the_clock(self):
        health = monitor(watch_epcs=self.WATCH)
        for i in range(10):
            health.observe_cycle(
                cycle(i, float(i), reads=(1, 2, 3, 4)), healthy=False
            )
        # The tag was never read, but no cycle was healthy: no staleness.
        assert health.engine.trackers["staleness_p99"].n_errors == 0

    def test_no_watch_epcs_means_no_staleness_slo_traffic(self):
        health = monitor()
        health.observe_cycle(cycle(0, 0.0, reads=(1, 2, 3)))
        assert health.engine.trackers["staleness_p99"].n_observations == 0


class TestRecovery:
    def test_episode_scored_once_when_it_closes(self):
        health = monitor(policy=HealthPolicy(
            irr_floor_hz=2.0, recovery_ceiling_s=3.0,
        ))
        tracker = health.engine.trackers["recovery_time"]
        health.observe_cycle(cycle(0, 0.0, reads=(1, 2, 3)))
        for i in range(1, 3):  # 2-cycle episode, recovers within ceiling
            health.observe_cycle(cycle(i, float(i), reads=(1, 2, 3)),
                                 healthy=False)
        health.observe_cycle(cycle(3, 3.0, reads=(1, 2, 3)))
        assert tracker.n_observations == 1
        assert tracker.n_errors == 0

    def test_slow_recovery_is_an_error(self):
        health = monitor(policy=HealthPolicy(
            irr_floor_hz=2.0, recovery_ceiling_s=3.0,
        ))
        tracker = health.engine.trackers["recovery_time"]
        for i in range(6):  # 6-cycle episode: 6 s >> 3 s ceiling
            health.observe_cycle(cycle(i, float(i), reads=(1, 2, 3)),
                                 healthy=False)
        health.observe_cycle(cycle(6, 6.0, reads=(1, 2, 3)))
        assert tracker.n_observations == 1
        assert tracker.n_errors == 1


class TestIncidents:
    def test_escalation_bundles_once_per_episode(self, tmp_path):
        recorder = FlightRecorder(capacity_cycles=4)
        health = monitor(recorder=recorder, incident_dir=str(tmp_path))
        health.observe_cycle(cycle(0, 0.0, reads=(1, 2, 3)), healthy=False)
        first = health.incident("retry", "escalation", 1.0, 0)
        second = health.incident("restart", "escalation", 2.0, 1)
        assert first is not None and second is None
        # A healthy cycle closes the episode; the next escalation dumps.
        health.observe_cycle(cycle(1, 1.0, reads=(1, 2, 3)))
        third = health.incident("retry", "escalation", 3.0, 2)
        assert third is not None
        # Incident records stay 1:1 with bundles; deduped rungs vanish.
        assert len(health.incidents) == 2

    def test_kills_and_invariants_always_dump(self, tmp_path):
        recorder = FlightRecorder(capacity_cycles=4)
        health = monitor(recorder=recorder, incident_dir=str(tmp_path))
        assert health.incident("soak kill", "kill", 1.0, 0) is not None
        assert health.incident("phantom_epc", "invariant", 2.0, 1) is not None

    def test_no_recorder_counts_but_does_not_dump(self, tmp_path):
        metrics = MetricsRegistry()
        health = monitor(metrics=metrics)
        assert health.incident("x", "kill", 1.0, 0) is None
        assert len(health.incidents) == 1
        assert metrics.to_dict()["health.incidents"]["value"] == 1


class TestReport:
    def test_report_shape_and_status(self):
        health = monitor()
        report = health.report()
        assert report["status"] == "ok"
        assert report["n_cycles"] == 0
        health.observe_cycle(cycle(0, 0.0, reads=(1, 2), degraded=True))
        report = health.report()
        assert report["status"] == "degraded"
        assert set(report) == {
            "status", "n_cycles", "slo", "n_alerts", "staleness_p99_cycles",
            "window", "client", "counters", "flight_recorder", "incidents",
        }

    def test_alerting_wins_over_degraded(self):
        health = monitor()
        for i in range(30):
            health.observe_cycle(cycle(i, float(i), reads=(1,)))  # 1 Hz: bad
        assert health.engine.n_alerts >= 1
        assert health.report()["status"] == "alerting"


def site_run(raw_per_reader=40, distinct=60, duration=2.0, n_readers=3):
    summaries = [
        {
            "reader_id": i,
            "reports": [None] * raw_per_reader,
            "n_rounds": 5,
            "n_slots": 100,
            "duration_s": duration,
        }
        for i in range(n_readers)
    ]
    return SimpleNamespace(
        config=SimpleNamespace(duration_s=duration),
        reader_summaries=summaries,
        fusion=SimpleNamespace(n_reports=distinct),
        missed_rate=0.0,
    )


class TestSiteHealth:
    def test_redundancy_within_budget_is_good(self):
        site = SiteHealthMonitor()
        signals = site.observe_run(site_run())
        assert signals["raw_reports"] == 120
        assert signals["redundancy"] == pytest.approx(2.0)
        assert site.engine.trackers["fusion_redundancy"].n_errors == 0

    def test_redundancy_over_budget_is_an_error(self):
        site = SiteHealthMonitor(policy=HealthPolicy(redundancy_budget=1.5))
        site.observe_run(site_run())  # redundancy 2.0 > 1.5
        assert site.engine.trackers["fusion_redundancy"].n_errors == 1

    def test_empty_fusion_is_an_error(self):
        site = SiteHealthMonitor()
        site.observe_run(site_run(distinct=0))
        assert site.engine.trackers["fusion_redundancy"].n_errors == 1

    def test_report_embeds_interval_signals(self):
        site = SiteHealthMonitor()
        run = site_run()
        site.observe_run(run)
        report = site.report(run=run)
        assert report["status"] == "ok"
        assert report["n_intervals"] == 1
        assert report["fusion"]["fused_distinct"] == 60
        assert len(report["fusion"]["readers"]) == 3

    def test_real_site_run_health_report(self):
        from repro.site import ChannelCoordinator, SiteConfig, ring_site
        from repro.site.site import simulate_site

        config = SiteConfig(
            topology=ring_site(2, 30),
            seed=3,
            duration_s=0.5,
            coordinator=ChannelCoordinator(n_channels=16),
        )
        run = simulate_site(config)
        report = run.health_report()
        assert report["status"] == "ok"
        assert report["fusion"]["fused_distinct"] == run.fusion.n_reports
