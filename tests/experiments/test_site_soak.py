"""Site chaos soak: the issue's acceptance criteria, executable.

- the default soak injects >= 10 reader deaths (each with a rejoin)
  across a 6-reader site with mobile tags crossing zones, and finishes
  with zero invariant violations and the failover SLO met;
- the whole report is byte-identical across ``workers=1`` and
  ``workers=4``;
- the seeded fault plan replays exactly.
"""

import pytest

from repro.experiments import site_soak


@pytest.fixture(scope="module")
def default_report():
    """One full-scale soak, shared by the acceptance assertions below."""
    return site_soak.run(site_soak.SiteSoakConfig(), workers=4)


SMOKE = site_soak.SiteSoakConfig(
    n_readers=3, n_tags=24, n_mobile=2, n_epochs=12, n_outages=2,
    n_degradations=1, n_jams=1,
)


class TestFaultPlan:
    def test_plan_is_seed_deterministic(self):
        config = site_soak.SiteSoakConfig()
        assert site_soak.build_fault_plan(config) == site_soak.build_fault_plan(
            config
        )
        reseeded = site_soak.SiteSoakConfig(seed=1)
        assert site_soak.build_fault_plan(config) != site_soak.build_fault_plan(
            reseeded
        )

    def test_every_death_can_rejoin_before_the_horizon(self):
        config = site_soak.SiteSoakConfig()
        outages = site_soak.config_outages(config)
        assert len(outages) == config.n_outages
        for outage in outages:
            assert outage.up_at_s <= config.horizon_s - 2 * config.epoch_s

    def test_deaths_spread_across_the_fleet(self):
        config = site_soak.SiteSoakConfig()
        hit = {o.reader_id for o in site_soak.config_outages(config)}
        assert len(hit) == config.n_readers  # 10 outages over 6 readers


class TestAcceptance:
    def test_chaos_scale_and_convergence(self, default_report):
        report = default_report
        config = site_soak.SiteSoakConfig()
        assert report.n_deaths >= 10
        assert report.n_rejoins >= 10
        assert report.violations == []
        assert report.slo["failover_time"]["errors"] == 0
        assert report.min_coverage >= config.coverage_floor
        assert report.health_status == "ok"
        assert report.ok
        # Every injected outage produced an incident record.
        assert len(report.incidents) >= config.n_outages

    def test_mobile_tags_cross_reader_zones(self, default_report):
        """At least one mobile tag was fused from two different readers."""
        from repro.site.site import (
            mobile_tag_indices,
            site_epcs,
        )

        config = site_soak.build_site_config(site_soak.SiteSoakConfig())
        epcs = site_epcs(config)
        mobile_values = [
            epcs[i].value for i in sorted(mobile_tag_indices(config))
        ]
        multi_reader = [
            value
            for value in mobile_values
            if value in set(default_report.fusion.epc_values())
            and len(default_report.fusion.record(value).reader_ids) >= 2
        ]
        assert multi_reader, "no mobile tag was ever seen by two readers"

    def test_report_serialises(self, default_report):
        payload = default_report.to_dict()
        assert payload["ok"] is True
        assert payload["n_deaths"] == default_report.n_deaths
        table = site_soak.format_report(
            site_soak.SiteSoakConfig(), default_report
        )
        assert "rejoins" in table and "status" in table


class TestDeterminism:
    def test_workers_byte_identical(self):
        sequential = site_soak.run(SMOKE, workers=1)
        sharded = site_soak.run(SMOKE, workers=4)
        assert sequential.canonical_bytes() == sharded.canonical_bytes()

    def test_same_seed_same_bytes(self):
        first = site_soak.run(SMOKE, workers=2)
        second = site_soak.run(SMOKE, workers=2)
        assert first.canonical_bytes() == second.canonical_bytes()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            site_soak.SiteSoakConfig(n_readers=0)
        with pytest.raises(ValueError):
            site_soak.SiteSoakConfig(layout="grid")
        with pytest.raises(ValueError):
            site_soak.SiteSoakConfig(downtime_min_s=2.0, downtime_max_s=1.0)

    def test_staleness_bound_tracks_the_worst_outage(self):
        config = site_soak.SiteSoakConfig()
        assert config.staleness_bound_s == pytest.approx(
            config.downtime_max_s + config.epoch_s + config.staleness_slack_s
        )
