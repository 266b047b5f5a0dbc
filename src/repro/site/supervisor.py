"""Fleet-scope supervision: watchdog, dynamic re-planning, warm rejoin.

The single-reader :class:`~repro.runtime.supervisor.Supervisor` climbs an
escalation ladder (retry → full inventory → restart) when *its* reader
misbehaves.  The :class:`SiteSupervisor` promotes that idea to fleet
scope: it advances the whole site in fixed simulated-time **epochs**, and
at every epoch barrier it

- **detects dead readers** with a missed-report watchdog — a reader
  silent for ``dead_after_silent_epochs`` consecutive epochs is believed
  dead (the fault plan's outages are invisible to the supervisor; all it
  sees is silence, exactly like a real site controller);
- **re-plans channels dynamically** — the
  :class:`~repro.site.channels.ChannelCoordinator` assignment is re-run
  over the *surviving* topology, re-packing the spectrum round-robin over
  the survivors and recomputing the interference budget without the dead
  aggressor;
- **rebalances coverage** — survivors within ``boost_radius_m`` of a
  dead reader stretch their zones by ``range_boost`` to blanket the hole
  (real deployments crank antenna power; the simulation scales range);
- **warm-rejoins** — when a believed-dead reader reports again it is
  re-admitted, the fleet re-plans back, and the site checkpoint's report
  set is replayed into the :class:`~repro.site.fusion.FusionLayer`; the
  fusion fold is commutative and idempotent, so the replay must absorb
  nothing new — churn can never fork or duplicate merged state;
- **scores SLOs and cuts incidents** — one ``failover_time`` observation
  and one incident bundle per outage episode, one ``coverage_floor``
  observation per epoch, through
  :class:`~repro.obs.health.monitor.SiteHealthMonitor`.

Determinism contract: every epoch fans one pure task per reader through
:func:`~repro.experiments.parallel.parallel_map` — the same reader task
and fusion fold as the one-shot :func:`~repro.site.site.simulate_site` —
and makes *all*
decisions at the barrier, in ascending reader order, from the returned
summaries alone — so a supervised run is byte-identical across
``workers=1`` and ``workers=N`` (the chaos-soak differential test pins
this).  Per-epoch seeds are salted with the epoch index, keeping each
epoch's randomness independent of how many epochs preceded it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.obs.health.monitor import HealthPolicy, SiteHealthMonitor
from repro.obs.tracer import get_tracer
from repro.runtime.checkpoint import CheckpointStore, CheckpointUnavailable
from repro.runtime.invariants import SiteInvariantSuite, Violation
from repro.site.fusion import FusionLayer
from repro.site.site import (
    SiteConfig,
    _channel_plan,
    _run_readers,
    mobile_tag_indices,
    site_epcs,
    site_tags,
)

__all__ = [
    "SitePolicy",
    "OutageEpisode",
    "SiteChaosReport",
    "SiteSupervisor",
    "site_config_hash",
]


def site_config_hash(config: SiteConfig) -> str:
    """Deployment fingerprint of a site config (checkpoint compatibility)."""
    document = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SitePolicy:
    """Fleet supervision knobs (all in simulated time)."""

    #: Length of one supervision epoch — the watchdog's granularity.
    epoch_s: float = 0.25
    #: Consecutive report-free epochs before a reader is believed dead.
    dead_after_silent_epochs: int = 1
    #: Range multiplier survivors near a dead reader apply while it is out.
    range_boost: float = 1.5
    #: Survivors within this distance of a dead reader boost their range.
    boost_radius_m: float = 8.0
    #: Site checkpoint cadence, in epochs (0 disables checkpointing).
    checkpoint_every_epochs: int = 4

    def __post_init__(self) -> None:
        if self.epoch_s <= 0:
            raise ValueError("epoch length must be positive")
        if self.dead_after_silent_epochs < 1:
            raise ValueError("watchdog needs at least one silent epoch")
        if self.range_boost < 1.0:
            raise ValueError("range boost cannot shrink a zone")
        if self.boost_radius_m <= 0:
            raise ValueError("boost radius must be positive")
        if self.checkpoint_every_epochs < 0:
            raise ValueError("checkpoint cadence must be non-negative")

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form of the policy knobs."""
        return {
            "epoch_s": round(self.epoch_s, 9),
            "dead_after_silent_epochs": self.dead_after_silent_epochs,
            "range_boost": round(self.range_boost, 9),
            "boost_radius_m": round(self.boost_radius_m, 9),
            "checkpoint_every_epochs": self.checkpoint_every_epochs,
        }


@dataclass
class OutageEpisode:
    """One detected outage, from first silence to rejoin."""

    reader_id: int
    #: Start of the first report-free epoch (when silence began).
    first_silent_t: float
    #: Epoch barrier at which the watchdog declared the reader dead.
    detected_t: float
    #: Barrier at which the re-plan over survivors took effect.
    replanned_t: Optional[float] = None
    #: Barrier at which the reader reported again and was re-admitted.
    rejoined_t: Optional[float] = None
    #: Checkpointed reports replayed at rejoin that fusion newly absorbed
    #: (must be 0: the fold is idempotent; anything else is lost state).
    replayed_new: int = 0
    #: Incident bundle filename, when the health monitor cut one.
    bundle: Optional[str] = None

    @property
    def failover_s(self) -> float:
        """Silence-to-replan latency (the failover-time SLO signal)."""
        end = self.replanned_t if self.replanned_t is not None else self.detected_t
        return end - self.first_silent_t

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly episode timeline (floats at report precision)."""
        return {
            "reader_id": self.reader_id,
            "first_silent_t": round(self.first_silent_t, 9),
            "detected_t": round(self.detected_t, 9),
            "replanned_t": (
                round(self.replanned_t, 9)
                if self.replanned_t is not None
                else None
            ),
            "rejoined_t": (
                round(self.rejoined_t, 9)
                if self.rejoined_t is not None
                else None
            ),
            "failover_s": round(self.failover_s, 9),
            "replayed_new": self.replayed_new,
            "bundle": self.bundle,
        }


@dataclass
class SiteChaosReport:
    """Everything a supervised (chaos) site run produced, canonically."""

    config: SiteConfig
    policy: SitePolicy
    n_epochs: int
    epoch_records: List[dict]
    episodes: List[OutageEpisode]
    fusion: FusionLayer
    truth_epc_values: List[int]
    violations: List[Violation]
    n_replans: int
    slo: Dict[str, dict]
    n_slo_alerts: int
    health_status: str
    incidents: List[dict]

    # ------------------------------------------------------------------
    @property
    def n_deaths(self) -> int:
        return len(self.episodes)

    @property
    def n_rejoins(self) -> int:
        return sum(1 for e in self.episodes if e.rejoined_t is not None)

    @property
    def min_coverage(self) -> float:
        if not self.epoch_records:
            return 0.0
        return min(r["coverage"] for r in self.epoch_records)

    @property
    def ok(self) -> bool:
        return not self.violations and self.health_status == "ok"

    def missed_epc_values(self) -> List[int]:
        """Ground-truth EPCs the whole supervised run never fused."""
        seen = set(self.fusion.epc_values())
        return [v for v in self.truth_epc_values if v not in seen]

    # ------------------------------------------------------------------
    def canonical(self) -> Dict[str, object]:
        """Canonical payload — the workers-differential comparison surface."""
        return {
            "config": self.config.to_dict(),
            "policy": self.policy.to_dict(),
            "n_epochs": self.n_epochs,
            "epochs": self.epoch_records,
            "episodes": [e.to_dict() for e in self.episodes],
            "fusion": self.fusion.snapshot(),
            "missed": [format(v, "x") for v in self.missed_epc_values()],
            "violations": [str(v) for v in self.violations],
            "n_replans": self.n_replans,
            "slo": self.slo,
            "n_slo_alerts": self.n_slo_alerts,
            "health_status": self.health_status,
            "incidents": self.incidents,
        }

    def canonical_bytes(self) -> bytes:
        """The canonical payload as stable JSON bytes (differential surface)."""
        return (
            json.dumps(self.canonical(), indent=2, sort_keys=True) + "\n"
        ).encode("utf-8")

    def to_dict(self) -> Dict[str, object]:
        """Canonical payload plus the derived pass/fail headline fields."""
        out = self.canonical()
        out["ok"] = self.ok
        out["n_deaths"] = self.n_deaths
        out["n_rejoins"] = self.n_rejoins
        out["min_coverage"] = round(self.min_coverage, 9)
        return out


class SiteSupervisor:
    """Epoch-driven fleet supervisor over one :class:`SiteConfig`.

    Parameters
    ----------
    config:
        The site, including its :class:`~repro.faults.site.SiteFaultPlan`
        (the supervisor never reads the plan for decisions — only the
        invariant checks at the end consult it as ground truth).
    policy:
        Watchdog/re-plan/boost knobs; defaults suit the chaos soak.
    health:
        A :class:`SiteHealthMonitor`; built (with ``recorder`` /
        ``bundle_dir`` wired through) when omitted.
    store:
        Optional :class:`CheckpointStore` for site checkpoints — enables
        warm rejoin replay and :meth:`restore`.
    recorder / bundle_dir:
        Flight recorder + directory for per-episode incident bundles
        (only used when ``health`` is omitted).
    """

    def __init__(
        self,
        config: SiteConfig,
        policy: Optional[SitePolicy] = None,
        health: Optional[SiteHealthMonitor] = None,
        store: Optional[CheckpointStore] = None,
        recorder=None,
        bundle_dir: Optional[str] = None,
        health_policy: Optional[HealthPolicy] = None,
    ) -> None:
        self.config = config
        self.policy = policy or SitePolicy()
        self.health = health or SiteHealthMonitor(
            policy=health_policy,
            recorder=recorder,
            incident_dir=bundle_dir,
        )
        self.store = store
        self.fusion = FusionLayer()
        self.truth_epc_values = sorted(
            epc.value for epc in site_epcs(config)
        )
        self.invariants = SiteInvariantSuite(self.truth_epc_values)
        self.reader_ids = [p.reader_id for p in config.topology.readers]
        self.epoch_index = 0
        self.believed_dead: Set[int] = set()
        self._silent: Dict[int, int] = {rid: 0 for rid in self.reader_ids}
        self._assignment, self._interference = _channel_plan(config)
        self._range_scale: Dict[int, float] = {
            rid: 1.0 for rid in self.reader_ids
        }
        self.episodes: List[OutageEpisode] = []
        self._open_episodes: Dict[int, OutageEpisode] = {}
        self.epoch_records: List[dict] = []
        self.n_replans = 0
        self._config_hash = site_config_hash(config)
        self._checkpoint_generation = 0
        self._tags = site_tags(config)

    # ------------------------------------------------------------------
    def _coverage(self, t: float) -> float:
        """Fraction of tags inside some believed-live (scaled) zone at t."""
        live = [
            p
            for p in self.config.topology.readers
            if p.reader_id not in self.believed_dead
        ]
        if not live:
            return 0.0
        covered = 0
        for tag in self._tags:
            position = tag.trajectory.position_xyz(t)
            for placement in live:
                reach = placement.range_m * self._range_scale[
                    placement.reader_id
                ]
                if math.dist(position, placement.position) <= reach:
                    covered += 1
                    break
        return covered / len(self._tags)

    def _rebalance(self) -> None:
        """Recompute coverage boosts from the current believed-dead set."""
        self._range_scale = {rid: 1.0 for rid in self.reader_ids}
        for dead in sorted(self.believed_dead):
            for rid in self.config.topology.neighbors_within(
                dead, self.policy.boost_radius_m
            ):
                if rid not in self.believed_dead:
                    self._range_scale[rid] = self.policy.range_boost

    def _replan(self) -> None:
        """Re-run the coordinator over survivors; dead keep stale entries."""
        alive = [
            rid for rid in self.reader_ids if rid not in self.believed_dead
        ]
        if alive:
            self._assignment.update(
                self.config.coordinator.assign(self.config.topology, alive)
            )
            self._interference.update(
                self.config.coordinator.interference_loss(
                    self.config.topology, alive
                )
            )
        self._rebalance()
        self.n_replans += 1

    def _warm_rejoin(self, reader_id: int) -> int:
        """Replay the site checkpoint into fusion; returns newly absorbed.

        The fold is idempotent, so a healthy supervisor absorbs exactly 0
        — the return value is evidence, not repair (a non-zero value
        means supervisor state diverged from its own checkpoint, which
        the chaos soak asserts never happens).
        """
        if self.store is None:
            return 0
        try:
            envelope, _ = self.store.load_latest(self._config_hash)
        except CheckpointUnavailable:
            return 0
        rows = envelope["payload"].get("reports", [])
        # The batch path materialises no TagReport objects for a pure
        # replay — every row deduplicates against the already-fused set.
        return self.fusion.ingest_rows(rows)

    # ------------------------------------------------------------------
    def run_epoch(self, workers: Optional[int] = None) -> dict:
        """Advance the site one epoch; all decisions happen at the barrier."""
        policy = self.policy
        t0 = round(self.epoch_index * policy.epoch_s, 9)
        t1 = round(t0 + policy.epoch_s, 9)
        # The rows this epoch runs on; the barrier's re-plan below must
        # not leak into this epoch's record.
        rows = {
            rid: (
                self._assignment[rid],
                self._interference[rid],
                self._range_scale[rid],
            )
            for rid in self.reader_ids
        }
        summaries = _run_readers(
            self.config,
            rows,
            self.fusion,
            t0=t0,
            duration_s=policy.epoch_s,
            seed_salt=f"-epoch-{self.epoch_index}",
            fault_salt=f"e{self.epoch_index}",
            cull=True,
            workers=workers,
        )

        # Watchdog: silence bookkeeping in ascending reader order.
        newly_dead: List[int] = []
        rejoined: List[int] = []
        for summary in summaries:
            rid = summary["reader_id"]
            if not summary["reports"]:
                self._silent[rid] += 1
                if (
                    rid not in self.believed_dead
                    and self._silent[rid] >= policy.dead_after_silent_epochs
                ):
                    newly_dead.append(rid)
            else:
                if rid in self.believed_dead:
                    rejoined.append(rid)
                self._silent[rid] = 0

        for rid in rejoined:
            self.believed_dead.discard(rid)
            episode = self._open_episodes.pop(rid, None)
            replayed = self._warm_rejoin(rid)
            if episode is not None:
                episode.rejoined_t = t1
                episode.replayed_new = replayed
        for rid in newly_dead:
            self.believed_dead.add(rid)
            episode = OutageEpisode(
                reader_id=rid,
                first_silent_t=round(
                    t1 - self._silent[rid] * policy.epoch_s, 9
                ),
                detected_t=t1,
            )
            self._open_episodes[rid] = episode
            self.episodes.append(episode)

        if newly_dead or rejoined:
            self._replan()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "site.replan",
                    t=t1,
                    category="site",
                    epoch=self.epoch_index,
                    dead=sorted(self.believed_dead),
                )
            for rid in newly_dead:
                episode = self._open_episodes[rid]
                episode.replanned_t = t1
                self.health.observe_failover(t1, episode.failover_s)
                bundle = self.health.incident(
                    f"reader-{rid}-outage",
                    "outage",
                    t1,
                    self.epoch_index,
                    config_hash=self._config_hash,
                    checkpoint_generation=self._checkpoint_generation,
                )
                if bundle is not None:
                    episode.bundle = bundle.name

        coverage = self._coverage(t1)
        self.health.observe_coverage(t1, coverage)
        self.invariants.check(self.fusion, cycle_index=self.epoch_index)

        if (
            self.store is not None
            and policy.checkpoint_every_epochs
            and (self.epoch_index + 1) % policy.checkpoint_every_epochs == 0
        ):
            payload = {
                "epoch": self.epoch_index,
                "reports": [r.to_row() for r in self.fusion.reports()],
                "believed_dead": sorted(self.believed_dead),
                "assignment": {
                    str(k): v for k, v in sorted(self._assignment.items())
                },
                "range_scale": {
                    str(k): round(v, 9)
                    for k, v in sorted(self._range_scale.items())
                },
            }
            self.store.save(
                payload,
                config_hash=self._config_hash,
                sim_time_s=t1,
                cycle_index=self.epoch_index,
            )
            self._checkpoint_generation += 1

        record = {
            "epoch": self.epoch_index,
            "t0": t0,
            "t1": t1,
            "readers": [
                {
                    "reader_id": s["reader_id"],
                    "n_reports": len(s["reports"]),
                    "n_rounds": s["n_rounds"],
                    "channel_offset": rows[s["reader_id"]][0],
                    "range_scale": round(rows[s["reader_id"]][2], 9),
                }
                for s in summaries
            ],
            "believed_dead": sorted(self.believed_dead),
            "newly_dead": sorted(newly_dead),
            "rejoined": sorted(rejoined),
            "coverage": round(coverage, 9),
            "n_fused": self.fusion.n_reports,
        }
        self.epoch_records.append(record)
        self.epoch_index += 1
        return record

    # ------------------------------------------------------------------
    def restore(self) -> bool:
        """Warm-start the supervisor itself from the site checkpoint."""
        if self.store is None:
            return False
        try:
            envelope, _ = self.store.load_latest(self._config_hash)
        except CheckpointUnavailable:
            return False
        payload = envelope["payload"]
        self.fusion = FusionLayer()
        self.fusion.ingest_rows(payload.get("reports", []))
        self.epoch_index = int(payload["epoch"]) + 1
        self.believed_dead = set(payload.get("believed_dead", []))
        self._assignment.update(
            {int(k): int(v) for k, v in payload.get("assignment", {}).items()}
        )
        self._range_scale.update(
            {
                int(k): float(v)
                for k, v in payload.get("range_scale", {}).items()
            }
        )
        self._silent = {rid: 0 for rid in self.reader_ids}
        for rid in self.believed_dead:
            self._silent[rid] = self.policy.dead_after_silent_epochs
        return True

    # ------------------------------------------------------------------
    def finish(
        self, staleness_bound_s: Optional[float] = None
    ) -> SiteChaosReport:
        """Run the end-of-run failover invariants; build the report.

        ``staleness_bound_s`` enables the bounded-staleness-in-lost-zone
        check (callers derive the bound from their fault plan: longest
        outage plus detection and catch-up slack); mobile tags are
        excused — they leave zones by design.
        """
        horizon_s = round(self.epoch_index * self.policy.epoch_s, 9)
        self.invariants.check_failover(
            self.fusion, self.config.faults, cycle_index=self.epoch_index
        )
        if staleness_bound_s is not None:
            mobile = mobile_tag_indices(self.config)
            mobile_values = {
                epc.value
                for i, epc in enumerate(site_epcs(self.config))
                if i in mobile
            }
            self.invariants.check_lost_zone_staleness(
                self.fusion,
                horizon_s=horizon_s,
                bound_s=staleness_bound_s,
                excused_epc_values=mobile_values,
                cycle_index=self.epoch_index,
            )
        return SiteChaosReport(
            config=self.config,
            policy=self.policy,
            n_epochs=self.epoch_index,
            epoch_records=self.epoch_records,
            episodes=self.episodes,
            fusion=self.fusion,
            truth_epc_values=self.truth_epc_values,
            violations=list(self.invariants.violations),
            n_replans=self.n_replans,
            slo=self.health.engine.verdicts(),
            n_slo_alerts=self.health.engine.n_alerts,
            health_status=(
                "alerting" if self.health.engine.n_alerts else "ok"
            ),
            incidents=[dict(r) for r in self.health.incidents],
        )

    def run(
        self,
        n_epochs: int,
        workers: Optional[int] = None,
        staleness_bound_s: Optional[float] = None,
    ) -> SiteChaosReport:
        """Supervise the site for ``n_epochs`` epochs; return the report."""
        for _ in range(n_epochs):
            self.run_epoch(workers=workers)
        return self.finish(staleness_bound_s=staleness_bound_s)
