"""Golden digests: faulted site runs are frozen byte-for-byte.

``test_golden_prepr.py`` pins the fault-free one-shot run.  These digests
pin the paths it cannot reach: a supervised chaos soak (reader deaths,
re-plans, rejoins, per-epoch seed and fault salts), a one-shot run under
a fault plan that truncates, jams and degrades reads while leaving one
reader untouched, and a supervised run with two readers the plan never
touches (every soak reader has an outage, so the soak never runs an
untouched reader's epoch).  A digest mismatch means a refactor changed
what a faulted site produces.
"""

import hashlib

from repro.experiments.site_soak import SiteSoakConfig, run
from repro.faults.site import (
    AntennaDegradation,
    ReaderChannelJam,
    ReaderOutage,
    SiteFaultPlan,
)
from repro.site.channels import ChannelCoordinator
from repro.site.site import SiteConfig, simulate_site
from repro.site.supervisor import SitePolicy, SiteSupervisor
from repro.site.topology import line_site

SOAK_SHA256 = "fbe7bab4dc8aa236bc07371d0fdcbfe9ab972b270a3ae4625254575a5b0ac54e"
FAULTED_SHA256 = "cae8f4a57f11fee12b28577bd6b4852b205a4abe98af0d5be8f2db7238a3b6c5"
UNTOUCHED_SHA256 = "ff5fc04d8f999eb61939e84d35cadf7aeb5d8db9fa12bec79b542a68abd97127"


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _faulted_config() -> SiteConfig:
    plan = SiteFaultPlan(
        outages=(ReaderOutage(reader_id=0, at_s=0.0421, downtime_s=0.05),),
        degradations=(
            AntennaDegradation(
                reader_id=1, start_s=0.02, end_s=0.12, extra_loss=0.5
            ),
        ),
        jams=(
            ReaderChannelJam(
                reader_id=2, channel_index=0, start_s=0.03, end_s=0.09
            ),
        ),
    )
    return SiteConfig(
        topology=line_site(4, 60, pitch_m=3.0, range_m=6.0),
        seed=11,
        duration_s=0.15,
        base_read_loss=0.1,
        coordinator=ChannelCoordinator(n_channels=4),
        faults=plan,
        n_mobile=3,
    )


def test_chaos_soak_bytes_are_pinned():
    report = run(SiteSoakConfig(n_epochs=16), workers=1)
    assert (report.n_deaths, report.n_rejoins) == (10, 10)
    assert _digest(report.canonical_bytes()) == SOAK_SHA256


def test_faulted_one_shot_bytes_are_pinned():
    site_run = simulate_site(_faulted_config(), workers=1)
    stats = [summary.get("faults") for summary in site_run.reader_summaries]
    # Every fault kind fires, and the untouched reader carries no stats.
    assert stats[3] is None
    for key in ("n_truncated", "n_jammed", "n_degraded"):
        assert sum(s[key] for s in stats[:3]) > 0, key
    assert _digest(site_run.canonical_bytes()) == FAULTED_SHA256


def test_supervised_untouched_readers_bytes_are_pinned():
    plan = SiteFaultPlan(
        outages=(ReaderOutage(reader_id=0, at_s=0.61, downtime_s=0.7),),
        degradations=(
            AntennaDegradation(
                reader_id=1, start_s=0.3, end_s=1.3, extra_loss=0.5
            ),
        ),
    )
    config = SiteConfig(
        topology=line_site(4, 80, pitch_m=3.0, range_m=5.0),
        seed=5,
        duration_s=3.0,
        base_read_loss=0.1,
        coordinator=ChannelCoordinator(n_channels=4),
        faults=plan,
        n_mobile=3,
    )
    assert plan.reader_noop(2) and plan.reader_noop(3)
    supervisor = SiteSupervisor(config, policy=SitePolicy(epoch_s=0.1))
    report = supervisor.run(20, workers=1)
    assert report.n_deaths == 1
    assert _digest(report.canonical_bytes()) == UNTOUCHED_SHA256
