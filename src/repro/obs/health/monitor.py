"""Live health aggregation for single readers and multi-reader sites.

The :class:`HealthMonitor` folds every supervised cycle into three things
at once:

- the **SLO engine** (:mod:`repro.obs.health.slo`) — IRR floor, mobile-tag
  staleness ceiling, and post-fault recovery time, each burn-rate scored
  on simulated time;
- the **flight recorder** (:mod:`repro.obs.health.recorder`) — per-cycle
  metric snapshots ride in the recorder's ring next to the spans; and
- a rolling :class:`~repro.core.monitor.TagwatchMonitor` window feeding
  the JSON health report (:meth:`HealthMonitor.report`) the ``health``
  CLI prints.

On a watchdog escalation, an injected kill, or an invariant violation the
supervisor (or soak harness) calls :meth:`HealthMonitor.incident`, which
cuts one deterministic bundle per unhealthy *episode* from the recorder:
consecutive escalations of one fault window collapse into a single
bundle, and the episode re-arms on the next healthy cycle.  Kills and
invariant violations always dump — they are discrete occurrences, not
rungs of one ladder.

:class:`SiteHealthMonitor` is the multi-reader counterpart: it scores the
site's fusion-redundancy budget and reports per-reader channel
utilization and the cross-reader dedup ratio.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.core.monitor import StalenessClock, TagwatchMonitor
from repro.obs.health.bundle import write_incident_bundle
from repro.obs.health.recorder import FlightRecorder
from repro.obs.health.slo import SloEngine, SloSpec
from repro.obs.tracer import get_tracer
from repro.util.stats import percentile

__all__ = [
    "HealthPolicy",
    "default_slos",
    "site_slos",
    "HealthMonitor",
    "SiteHealthMonitor",
]


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds that turn raw cycle signals into SLO good/bad events."""

    #: Reads per simulated second below which a cycle misses the IRR SLO.
    irr_floor_hz: float = 1.0
    #: Healthy cycles a covered mobile tag may go unread before the
    #: staleness SLO records an error (mirrors the invariant suite bound).
    staleness_ceiling_cycles: int = 3
    #: Simulated seconds an unhealthy episode may last before the recovery
    #: SLO records an error.
    recovery_ceiling_s: float = 60.0
    #: Site: raw reports per fused distinct read the redundancy budget
    #: tolerates (beyond it, readers are mostly re-reading each other).
    redundancy_budget: float = 8.0
    #: Site: fraction of tags that must sit inside some *live* reader's
    #: zone every supervisor epoch (the coverage-floor SLO).
    coverage_floor: float = 0.75
    #: Site: simulated seconds between a reader going silent and the
    #: supervisor's re-plan taking effect (the failover-time SLO).
    failover_ceiling_s: float = 1.0
    #: Rolling window (cycles) for the report's aggregate statistics.
    window: int = 50

    def __post_init__(self) -> None:
        if self.irr_floor_hz <= 0:
            raise ValueError("IRR floor must be positive")
        if self.staleness_ceiling_cycles < 1:
            raise ValueError("staleness ceiling must be >= 1 cycle")
        if self.recovery_ceiling_s <= 0:
            raise ValueError("recovery ceiling must be positive")
        if self.redundancy_budget < 1.0:
            raise ValueError("redundancy budget must be >= 1")
        if not 0.0 < self.coverage_floor <= 1.0:
            raise ValueError("coverage floor must be a fraction in (0, 1]")
        if self.failover_ceiling_s <= 0:
            raise ValueError("failover ceiling must be positive")
        if self.window < 1:
            raise ValueError("window must be positive")


def default_slos() -> Tuple[SloSpec, ...]:
    """The single-reader objectives the paper's metrics suggest."""
    return (
        SloSpec(
            name="irr_floor",
            description="cycle read rate stays above the IRR floor",
            target=0.99,
        ),
        SloSpec(
            name="staleness_p99",
            description="covered mobile tags are re-read within the "
            "staleness ceiling",
            target=0.99,
        ),
        SloSpec(
            name="recovery_time",
            description="unhealthy episodes recover within the ceiling",
            target=0.95,
        ),
    )


def site_slos() -> Tuple[SloSpec, ...]:
    """The site-level objectives (per simulated interval / epoch)."""
    return (
        SloSpec(
            name="fusion_redundancy",
            description="raw-report fan-in per fused read stays within "
            "the redundancy budget",
            target=0.95,
        ),
        SloSpec(
            name="failover_time",
            description="a dead reader's re-plan takes effect within the "
            "failover ceiling",
            target=0.95,
        ),
        SloSpec(
            name="coverage_floor",
            description="live reader zones keep covering the tag-field "
            "fraction above the floor",
            target=0.95,
        ),
    )


class _IncidentWriter:
    """The incident record-and-bundle body both monitors share.

    Hosts provide ``incidents``, ``metrics``, ``recorder``,
    ``incident_dir`` and ``engine``.
    """

    def incident(
        self,
        reason: str,
        kind: str,
        t_s: float,
        cycle_index: int,
        config_hash: str = "",
        checkpoint_generation: int = 0,
    ) -> Optional[Path]:
        """Record an incident; cut one bundle per call when wired.

        Every call that reaches a recorder + directory dumps a bundle and
        returns its path.  The site supervisor calls this once per outage
        *episode* (detection through rejoin is one episode), so its dedup
        lives there; :meth:`HealthMonitor.incident` dedups escalations.
        """
        record = {
            "seq": len(self.incidents) + 1,
            "reason": reason,
            "kind": kind,
            "t_s": round(float(t_s), 9),
            "cycle_index": int(cycle_index),
        }
        self.incidents.append(record)
        if self.metrics is not None:
            self.metrics.counter("health.incidents").inc()
        if self.recorder is None or self.incident_dir is None:
            return None
        path = write_incident_bundle(
            self.incident_dir,
            seq=record["seq"],
            reason=f"{kind}-{reason}",
            kind=kind,
            t_s=t_s,
            cycle_index=cycle_index,
            recorder=self.recorder,
            slo_verdicts=self.engine.verdicts(),
            metrics=self.metrics,
            config_hash=config_hash,
            checkpoint_generation=checkpoint_generation,
        )
        record["bundle"] = path.name
        return path


class HealthMonitor(_IncidentWriter):
    """Single-reader health: SLOs, flight recording, incident bundles.

    Parameters
    ----------
    policy:
        Signal thresholds; defaults are calibrated to the lab scenarios.
    slos:
        Objective set; :func:`default_slos` when omitted.
    recorder:
        The :class:`FlightRecorder` the deployment traces into.  Needed
        for incident bundles and metric-snapshot rings; without one the
        monitor still scores SLOs and reports.
    incident_dir:
        Where bundles land; ``None`` disables dumping (incidents are
        still counted).
    watch_epcs:
        EPC values whose staleness is bounded (the mobile tags).
    scene:
        Optional ground truth; when given, tags out of coverage are
        excused from staleness exactly as the invariant suite excuses
        them, so a blocked tag cannot fire a false staleness alert.
    metrics:
        Optional registry receiving ``slo.*`` counters and snapshot rings.
    """

    def __init__(
        self,
        policy: Optional[HealthPolicy] = None,
        slos: Optional[Iterable[SloSpec]] = None,
        recorder: Optional[FlightRecorder] = None,
        incident_dir: Optional[str] = None,
        watch_epcs: Iterable[int] = (),
        scene=None,
        metrics=None,
    ) -> None:
        self.policy = policy or HealthPolicy()
        self.engine = SloEngine(
            tuple(slos) if slos is not None else default_slos(),
            metrics=metrics,
        )
        self.recorder = recorder
        self.incident_dir = incident_dir
        self.metrics = metrics
        self.watch_epcs = sorted(set(watch_epcs))
        self.monitor = TagwatchMonitor(window=self.policy.window)
        self.staleness = StalenessClock(self.watch_epcs, scene)
        self._staleness_samples: Deque[int] = deque(
            maxlen=self.policy.window * max(1, len(self.watch_epcs))
        )
        #: Unhealthy-episode state for the recovery SLO and incident dedup.
        self._episode_start_s: Optional[float] = None
        self._episode_bundled = False
        self._client_state: Dict[str, object] = {}
        self.incidents: List[dict] = []
        self.n_cycles = 0

    # ------------------------------------------------------------------
    def _observe_staleness(self, result, healthy: bool) -> int:
        """Advance the staleness clocks; returns the current worst value."""
        self.staleness.advance(result, healthy)
        counts = self.staleness.counts
        self._staleness_samples.extend(counts.values())
        return max(counts.values(), default=0)

    # ------------------------------------------------------------------
    def observe_cycle(
        self,
        result,
        healthy: bool = True,
        reasons: Iterable[str] = (),
        client=None,
    ) -> None:
        """Fold one :class:`~repro.core.tagwatch.CycleResult` in."""
        self.n_cycles += 1
        self.monitor.record(result)
        t = result.phase2_end_s
        reads = len(result.phase1_observations) + len(
            result.phase2_observations
        )
        irr_hz = reads / max(result.cycle_duration_s, 1e-9)
        self.engine.record("irr_floor", t, good=irr_hz >= self.policy.irr_floor_hz)

        worst_staleness = self._observe_staleness(result, healthy)
        if self.watch_epcs:
            self.engine.record(
                "staleness_p99",
                t,
                good=worst_staleness <= self.policy.staleness_ceiling_cycles,
            )

        # Recovery SLO: one observation per unhealthy episode, scored when
        # the episode closes (the first healthy cycle after it).
        if not healthy and self._episode_start_s is None:
            self._episode_start_s = result.phase1_start_s
        elif healthy and self._episode_start_s is not None:
            recovery_s = t - self._episode_start_s
            self.engine.record(
                "recovery_time",
                t,
                good=recovery_s <= self.policy.recovery_ceiling_s,
            )
            self._episode_start_s = None
        if healthy:
            self._episode_bundled = False

        if client is not None:
            self._client_state = {
                "state": getattr(
                    getattr(client, "state", None), "name", "UNKNOWN"
                ),
                "keepalive_gap_s": round(
                    float(getattr(client, "keepalive_gap_s", 0.0)), 9
                ),
            }

        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "slo.irr_hz", t=t, category="slo", value=round(irr_hz, 6)
            )
            if self._staleness_samples:
                tracer.event(
                    "slo.staleness_p99_cycles",
                    t=t,
                    category="slo",
                    value=round(
                        percentile(self._staleness_samples, 99.0), 6
                    ),
                )
        if self.metrics is not None:
            self.metrics.gauge("slo.irr_hz").set(round(irr_hz, 9))
        if self.recorder is not None and self.metrics is not None:
            self.recorder.snapshot_metrics(
                result.index, t, self.metrics.to_dict()
            )

    # ------------------------------------------------------------------
    def incident(
        self,
        reason: str,
        kind: str,
        t_s: float,
        cycle_index: int,
        config_hash: str = "",
        checkpoint_generation: int = 0,
    ) -> Optional[Path]:
        """Record an incident; cut a bundle unless this episode already did.

        ``kind`` is ``"escalation"`` (episode-deduplicated: the ladder's
        RETRY → FULL_INVENTORY → RESTART rungs of one fault window produce
        one bundle), ``"kill"``, ``"invariant"``, or anything a harness
        invents — non-escalation kinds always dump.
        """
        if kind == "escalation":
            if self._episode_bundled:
                return None
            self._episode_bundled = True
        return super().incident(
            reason, kind, t_s, cycle_index, config_hash, checkpoint_generation
        )

    # ------------------------------------------------------------------
    @property
    def status(self) -> str:
        """``"ok"``, ``"degraded"`` (window saw trouble), or ``"alerting"``."""
        if self.engine.n_alerts:
            return "alerting"
        if self.n_cycles:
            snapshot = self.monitor.snapshot()
            if snapshot.degraded_fraction > 0 or snapshot.fallback_fraction > 0.5:
                return "degraded"
        return "ok"

    def report(self) -> dict:
        """The JSON health report (what ``python -m repro health`` prints)."""
        window: Dict[str, object] = {}
        if self.n_cycles:
            snapshot = self.monitor.snapshot()
            window = {
                "n_cycles": snapshot.n_cycles,
                "fallback_fraction": round(snapshot.fallback_fraction, 9),
                "degraded_fraction": round(snapshot.degraded_fraction, 9),
                "mean_cycle_duration_s": round(
                    snapshot.mean_cycle_duration_s, 9
                ),
                "mean_phase1_reads": round(snapshot.mean_phase1_reads, 9),
                "mean_phase2_reads": round(snapshot.mean_phase2_reads, 9),
                "n_empty_phase1": snapshot.n_empty_phase1,
            }
        staleness_p99 = (
            round(percentile(self._staleness_samples, 99.0), 6)
            if self._staleness_samples
            else 0.0
        )
        counters: Dict[str, object] = {}
        if self.metrics is not None:
            counters = {
                name: entry["value"]
                for name, entry in self.metrics.to_dict().items()
                if entry.get("type") == "counter"
                and name.startswith(("client.", "faults.", "runtime."))
            }
        recorder_info: Dict[str, object] = {}
        if self.recorder is not None:
            recorder_info = {
                "capacity_cycles": self.recorder.capacity_cycles,
                "cycles_retained": self.recorder.n_cycles_retained,
                "records": len(self.recorder.records),
                "evicted_spans": self.recorder.evicted_spans,
                "evicted_events": self.recorder.evicted_events,
            }
        return {
            "status": self.status,
            "n_cycles": self.n_cycles,
            "slo": self.engine.verdicts(),
            "n_alerts": self.engine.n_alerts,
            "staleness_p99_cycles": staleness_p99,
            "window": window,
            "client": dict(self._client_state),
            "counters": counters,
            "flight_recorder": recorder_info,
            "incidents": [dict(record) for record in self.incidents],
        }


class SiteHealthMonitor(_IncidentWriter):
    """Site-level health: redundancy, failover time and coverage floor.

    Observes whole :class:`~repro.site.site.SiteRun` intervals rather than
    cycles; each interval contributes one ``fusion_redundancy`` SLO
    observation at the interval's end time.  The site supervisor
    additionally feeds it one ``coverage_floor`` observation per epoch
    (:meth:`observe_coverage`), one ``failover_time`` observation per
    outage episode (:meth:`observe_failover`), and cuts one incident
    bundle per episode through :meth:`incident` when a recorder and
    ``incident_dir`` are wired in.
    """

    def __init__(
        self,
        policy: Optional[HealthPolicy] = None,
        slos: Optional[Iterable[SloSpec]] = None,
        metrics=None,
        recorder: Optional[FlightRecorder] = None,
        incident_dir: Optional[str] = None,
    ) -> None:
        self.policy = policy or HealthPolicy()
        self.engine = SloEngine(
            tuple(slos) if slos is not None else site_slos(),
            metrics=metrics,
        )
        self.metrics = metrics
        self.recorder = recorder
        self.incident_dir = incident_dir
        self.incidents: List[dict] = []
        self.n_intervals = 0
        self._t = 0.0

    # ------------------------------------------------------------------
    @staticmethod
    def _interval_signals(run) -> dict:
        raw = sum(len(s["reports"]) for s in run.reader_summaries)
        distinct = run.fusion.n_reports
        redundancy = raw / distinct if distinct else 0.0
        readers = []
        for summary in run.reader_summaries:
            duration = float(summary.get("duration_s", 0.0)) or float(
                run.config.duration_s
            )
            readers.append(
                {
                    "reader_id": summary["reader_id"],
                    "rounds": summary["n_rounds"],
                    "slots": summary["n_slots"],
                    "slots_per_s": round(summary["n_slots"] / duration, 6)
                    if duration
                    else 0.0,
                    "raw_reports": len(summary["reports"]),
                }
            )
        return {
            "raw_reports": raw,
            "fused_distinct": distinct,
            "dedup_ratio": round(1.0 - distinct / raw, 9) if raw else 0.0,
            "redundancy": round(redundancy, 9),
            "missed_rate": round(run.missed_rate, 9),
            "readers": readers,
        }

    def observe_run(self, run) -> dict:
        """Fold one site interval in; returns its signal summary."""
        self.n_intervals += 1
        self._t += float(run.config.duration_s)
        signals = self._interval_signals(run)
        self.engine.record(
            "fusion_redundancy",
            self._t,
            good=(
                signals["fused_distinct"] > 0
                and signals["redundancy"] <= self.policy.redundancy_budget
            ),
        )
        return signals

    def observe_coverage(self, t_s: float, fraction: float) -> None:
        """One epoch's live-zone coverage fraction against the floor."""
        self.engine.record(
            "coverage_floor",
            t_s,
            good=fraction >= self.policy.coverage_floor,
        )
        if self.metrics is not None:
            self.metrics.gauge("slo.site_coverage").set(round(fraction, 9))

    def observe_failover(self, t_s: float, failover_s: float) -> None:
        """One outage episode's silent-to-replanned latency."""
        self.engine.record(
            "failover_time",
            t_s,
            good=failover_s <= self.policy.failover_ceiling_s,
        )
        if self.metrics is not None:
            self.metrics.gauge("slo.site_failover_s").set(
                round(failover_s, 9)
            )

    # ------------------------------------------------------------------
    def report(self, run=None) -> dict:
        """Site health report; pass ``run`` to embed its interval signals."""
        out: Dict[str, object] = {
            "status": "alerting" if self.engine.n_alerts else "ok",
            "n_intervals": self.n_intervals,
            "slo": self.engine.verdicts(),
            "n_slo_alerts": self.engine.n_alerts,
            "policy": {
                "redundancy_budget": self.policy.redundancy_budget,
                "coverage_floor": self.policy.coverage_floor,
                "failover_ceiling_s": self.policy.failover_ceiling_s,
            },
        }
        if self.incidents:
            out["incidents"] = [dict(record) for record in self.incidents]
        if run is not None:
            out["fusion"] = self._interval_signals(run)
        return out
