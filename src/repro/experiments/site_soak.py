"""Site chaos soak: reader deaths, rejoins and re-plans at fleet scale.

``python -m repro site --chaos`` runs a :class:`~repro.site.supervisor.
SiteSupervisor` over a multi-reader site while a seeded
:class:`~repro.faults.site.SiteFaultPlan` kills readers, degrades
antennas and jams channels — with mobile tags orbiting the field and
crossing reader zones mid-outage.  After the run the site invariant
suite (including the failover checks: no phantom reports during an
outage, bounded staleness in the lost zone) and the site SLOs
(failover time, coverage floor) decide pass/fail, so the soak is
CI-gateable exactly like the single-reader one.

Everything — outage schedule, downtimes, degradation windows, jam
windows — derives from one seed, so a failing soak replays exactly; and
because the supervisor makes every decision at epoch barriers over
:func:`~repro.experiments.parallel.parallel_map` results, the whole
report is byte-identical across ``--workers 1`` and ``--workers 4``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.faults.site import (
    AntennaDegradation,
    ReaderChannelJam,
    ReaderOutage,
    SiteFaultPlan,
)
from repro.obs.health.monitor import HealthPolicy
from repro.runtime.checkpoint import CheckpointStore
from repro.site.channels import ChannelCoordinator
from repro.site.site import SiteConfig
from repro.site.supervisor import SiteChaosReport, SitePolicy, SiteSupervisor
from repro.site.topology import line_site, ring_site
from repro.util.rng import RngStream
from repro.util.tables import format_table

__all__ = [
    "SiteSoakConfig",
    "build_fault_plan",
    "build_site_config",
    "run",
    "format_report",
]


@dataclass(frozen=True)
class SiteSoakConfig:
    """Everything one site chaos soak needs, seeded and serialisable."""

    n_readers: int = 6
    n_tags: int = 96
    n_mobile: int = 4
    layout: str = "line"
    seed: int = 0
    n_epochs: int = 48
    epoch_s: float = 0.25
    base_read_loss: float = 0.15
    n_channels: int = 8
    range_m: float = 5.0
    pitch_m: float = 3.0
    mobile_speed_mps: float = 1.0
    #: Injected reader deaths (each with a drawn downtime, so each is a
    #: death *and* — when the run is long enough — a rejoin).
    n_outages: int = 10
    downtime_min_s: float = 0.5
    downtime_max_s: float = 1.0
    n_degradations: int = 2
    degradation_loss: float = 0.5
    n_jams: int = 2
    #: SLO thresholds handed to the health policy.
    coverage_floor: float = 0.6
    failover_ceiling_s: float = 1.0
    #: Lost-zone staleness bound = longest downtime + detection + slack.
    staleness_slack_s: float = 2.0

    def __post_init__(self) -> None:
        if self.n_readers < 1:
            raise ValueError("need at least one reader")
        if self.layout not in ("line", "ring"):
            raise ValueError("layout must be 'line' or 'ring'")
        if self.n_epochs < 1:
            raise ValueError("need at least one epoch")
        if self.epoch_s <= 0:
            raise ValueError(f"epoch_s must be positive, got {self.epoch_s}")
        if self.n_outages and self.n_epochs < 3:
            raise ValueError(
                "n_epochs must be >= 3 when n_outages > 0 (outages fall "
                f"before the last two epochs), got {self.n_epochs}"
            )
        if not 0 < self.downtime_min_s <= self.downtime_max_s:
            raise ValueError("downtime bounds must be positive and ordered")
        if self.n_outages < 0 or self.n_degradations < 0 or self.n_jams < 0:
            raise ValueError("fault counts must be non-negative")

    @property
    def horizon_s(self) -> float:
        return self.n_epochs * self.epoch_s

    @property
    def staleness_bound_s(self) -> float:
        return (
            self.downtime_max_s + self.epoch_s + self.staleness_slack_s
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (floats rounded to report precision)."""
        return {
            "n_readers": self.n_readers,
            "n_tags": self.n_tags,
            "n_mobile": self.n_mobile,
            "layout": self.layout,
            "seed": self.seed,
            "n_epochs": self.n_epochs,
            "epoch_s": round(self.epoch_s, 9),
            "base_read_loss": round(self.base_read_loss, 9),
            "n_channels": self.n_channels,
            "range_m": round(self.range_m, 9),
            "pitch_m": round(self.pitch_m, 9),
            "mobile_speed_mps": round(self.mobile_speed_mps, 9),
            "n_outages": self.n_outages,
            "downtime_min_s": round(self.downtime_min_s, 9),
            "downtime_max_s": round(self.downtime_max_s, 9),
            "n_degradations": self.n_degradations,
            "degradation_loss": round(self.degradation_loss, 9),
            "n_jams": self.n_jams,
            "coverage_floor": round(self.coverage_floor, 9),
            "failover_ceiling_s": round(self.failover_ceiling_s, 9),
            "staleness_slack_s": round(self.staleness_slack_s, 9),
        }


def build_fault_plan(config: SiteSoakConfig) -> SiteFaultPlan:
    """The seeded chaos schedule for one soak run.

    Outage *k* hits reader ``perm[k % n_readers]`` around
    ``(k + 1) · horizon / (n_outages + 2)`` with jitter — round-robin
    over a seeded permutation, so deaths spread across the fleet and the
    same reader's outages sit a fleet-width apart (they can never
    overlap, which the plan validates anyway).  Downtimes are drawn
    uniform within the configured bounds and clipped so the rejoin lands
    at least two epochs before the horizon — every injected death is
    also an observable rejoin.
    """
    rng = RngStream(config.seed).child("site-chaos-plan")
    horizon = config.horizon_s
    outages: List[ReaderOutage] = []
    if config.n_outages:
        perm = [int(r) for r in rng.permutation(config.n_readers)]
        pitch = (horizon - 2 * config.epoch_s) / (config.n_outages + 1)
        for k in range(config.n_outages):
            reader_id = perm[k % config.n_readers]
            at_s = (k + 1) * pitch + float(
                rng.uniform(0.0, 0.25 * pitch)
            )
            downtime = float(
                rng.uniform(config.downtime_min_s, config.downtime_max_s)
            )
            latest_up = horizon - 2 * config.epoch_s
            downtime = max(
                config.epoch_s, min(downtime, latest_up - at_s)
            )
            outages.append(
                ReaderOutage(
                    reader_id=reader_id,
                    at_s=round(at_s, 9),
                    downtime_s=round(downtime, 9),
                )
            )
    degradations = []
    for _ in range(config.n_degradations):
        reader_id = int(rng.integers(0, config.n_readers))
        start = float(rng.uniform(0.0, max(horizon - 1.0, 0.0)))
        degradations.append(
            AntennaDegradation(
                reader_id=reader_id,
                start_s=round(start, 9),
                end_s=round(start + 1.0, 9),
                extra_loss=config.degradation_loss,
            )
        )
    jams = []
    for _ in range(config.n_jams):
        reader_id = int(rng.integers(0, config.n_readers))
        channel = int(rng.integers(0, config.n_channels))
        start = float(rng.uniform(0.0, max(horizon - 1.0, 0.0)))
        jams.append(
            ReaderChannelJam(
                reader_id=reader_id,
                channel_index=channel,
                start_s=round(start, 9),
                end_s=round(start + 1.0, 9),
            )
        )
    return SiteFaultPlan(
        outages=tuple(outages),
        degradations=tuple(degradations),
        jams=tuple(jams),
    )


def build_site_config(config: SiteSoakConfig) -> SiteConfig:
    """The supervised site the soak drives (topology + faults + mobility)."""
    if config.layout == "ring":
        topology = ring_site(
            config.n_readers, config.n_tags, range_m=config.range_m
        )
    else:
        topology = line_site(
            config.n_readers,
            config.n_tags,
            pitch_m=config.pitch_m,
            range_m=config.range_m,
        )
    return SiteConfig(
        topology=topology,
        seed=config.seed,
        duration_s=config.horizon_s,
        base_read_loss=config.base_read_loss,
        coordinator=ChannelCoordinator(n_channels=config.n_channels),
        faults=build_fault_plan(config),
        n_mobile=config.n_mobile,
        mobile_speed_mps=config.mobile_speed_mps,
    )


def run(
    config: SiteSoakConfig,
    workers: Optional[int] = None,
    recorder=None,
    bundle_dir: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
) -> SiteChaosReport:
    """One supervised chaos run; the report carries its own verdicts."""
    site_config = build_site_config(config)
    policy = SitePolicy(epoch_s=config.epoch_s)
    health_policy = HealthPolicy(
        coverage_floor=config.coverage_floor,
        failover_ceiling_s=config.failover_ceiling_s,
    )
    store = (
        CheckpointStore(checkpoint_path)
        if checkpoint_path is not None
        else None
    )
    supervisor = SiteSupervisor(
        site_config,
        policy=policy,
        store=store,
        recorder=recorder,
        bundle_dir=bundle_dir,
        health_policy=health_policy,
    )
    return supervisor.run(
        config.n_epochs,
        workers=workers,
        staleness_bound_s=config.staleness_bound_s,
    )


def format_report(config: SiteSoakConfig, report: SiteChaosReport) -> str:
    """Human-readable soak summary (the ``--chaos`` CLI output)."""
    rows = [
        ["epochs", str(report.n_epochs)],
        ["injected outages", str(len(config_outages(config)))],
        ["deaths detected", str(report.n_deaths)],
        ["rejoins", str(report.n_rejoins)],
        ["re-plans", str(report.n_replans)],
        ["fused reports", str(report.fusion.n_reports)],
        ["missed tags", str(len(report.missed_epc_values()))],
        ["min coverage", f"{report.min_coverage:.3f}"],
        ["slo alerts", str(report.n_slo_alerts)],
        ["incidents", str(len(report.incidents))],
        ["violations", str(len(report.violations))],
        ["status", "ok" if report.ok else "FAIL"],
    ]
    return format_table(["signal", "value"], rows)


def config_outages(config: SiteSoakConfig) -> List[ReaderOutage]:
    """The outages the seeded plan will inject (for reporting/tests)."""
    return list(build_fault_plan(config).outages)
