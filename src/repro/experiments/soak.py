"""Chaos soak harness: thousands of supervised cycles under seeded faults.

``python -m repro soak`` runs a supervised Tagwatch deployment
(:mod:`repro.runtime`) for thousands of cycles while a seeded fault
schedule throws everything the fault model has at it:

- **reader crash/restart** — a reader crash (with reboot and session-state
  loss) is scheduled every ``crash_every`` cycles at a jittered offset;
- **antenna dropout** and **channel jamming bursts** — pre-scheduled
  blackout/jam windows scattered over the whole run;
- **tag-population churn** — a subset of stationary tags blinks in and out
  behind seeded blocked intervals (pallets moved in front of them);
- **supervised process kills** — every ``kill_every`` cycles the Tagwatch
  middleware is killed outright and warm-restarts from its last
  checkpoint;
- **checkpoint corruption at rest** — every ``corrupt_every`` cycles the
  newest snapshot file is damaged in place, forcing recovery through an
  older generation.

After every cycle the :class:`~repro.runtime.InvariantSuite` checks that
recovery never traded correctness for liveness (no phantom or duplicate
EPCs, bounded mobile-tag staleness, convergent recovery).  The CLI exits
non-zero when any invariant was violated, so a soak run is CI-gateable.

Everything — fault schedule, jitter, corruption bytes — derives from one
seed, so a failing soak replays exactly.
"""

from __future__ import annotations

import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core import TagwatchConfig
from repro.experiments.harness import LabSetup, build_lab
from repro.experiments.parallel import parallel_map, spawn_seeds
from repro.faults import AntennaBlackout, ChannelJam, FaultPlan, ReaderCrash
from repro.obs.health import FlightRecorder, HealthMonitor
from repro.obs.tracer import use_tracer
from repro.runtime import (
    CheckpointStore,
    InvariantSuite,
    Supervisor,
    SupervisorConfig,
    WatchdogPolicy,
)
from repro.util.rng import RngStream
from repro.util.tables import format_table


@dataclass(frozen=True)
class SoakConfig:
    """Everything one soak run needs, seeded and serialisable."""

    n_cycles: int = 2000
    seed: int = 0
    n_tags: int = 12
    n_mobile: int = 2
    phase2_duration_s: float = 1.0
    warmup_s: float = 10.0
    #: iid report loss running in the background the whole time.
    report_loss: float = 0.03
    #: One reader crash scheduled per this many cycles (0 disables).
    crash_every: int = 80
    crash_downtime_s: Tuple[float, float] = (2.0, 8.0)
    #: One middleware kill (warm restart) per this many cycles (0 disables).
    kill_every: int = 400
    #: One checkpoint-corruption-at-rest per this many cycles (0 disables).
    corrupt_every: int = 500
    #: One channel jamming burst per this many cycles (0 disables).
    jam_every: int = 150
    jam_duration_s: Tuple[float, float] = (0.5, 3.0)
    #: One antenna dropout window per this many cycles (0 disables).
    blackout_every: int = 120
    blackout_duration_s: Tuple[float, float] = (5.0, 15.0)
    #: Stationary tags that churn (blink behind blocked intervals).
    churn_tags: int = 3
    churn_block_s: Tuple[float, float] = (8.0, 30.0)
    #: Supervisor knobs.
    checkpoint_every: int = 20
    retain: int = 3
    #: Invariant bounds.
    staleness_healthy_cycles: int = 3
    max_consecutive_unhealthy: int = 12
    #: Where checkpoint generations live (None: a temporary directory
    #: removed when the run ends).
    checkpoint_dir: Optional[str] = None
    #: Where incident bundles land (None disables flight recording; SLOs
    #: are still scored and reported).
    bundle_dir: Optional[str] = None
    #: Flight-recorder depth when ``bundle_dir`` is set.
    flight_capacity: int = 32

    def __post_init__(self) -> None:
        if self.n_cycles < 1:
            raise ValueError("need at least one cycle")
        if self.n_mobile < 1 or self.n_mobile > self.n_tags:
            raise ValueError("mobile count must be in [1, n_tags]")
        if self.churn_tags > self.n_tags - self.n_mobile:
            raise ValueError("cannot churn more tags than are stationary")
        for name in ("crash_every", "kill_every", "corrupt_every",
                     "jam_every", "blackout_every", "churn_tags"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0 (0 disables it)")
        for name in ("crash_downtime_s", "jam_duration_s",
                     "blackout_duration_s", "churn_block_s"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi:
                raise ValueError(f"{name} must satisfy 0 < lo <= hi")

    def to_dict(self) -> dict:
        """The knobs as a JSON-ready dict (embedded in every report)."""
        return {
            "n_cycles": self.n_cycles,
            "seed": self.seed,
            "n_tags": self.n_tags,
            "n_mobile": self.n_mobile,
            "phase2_duration_s": self.phase2_duration_s,
            "report_loss": self.report_loss,
            "crash_every": self.crash_every,
            "kill_every": self.kill_every,
            "corrupt_every": self.corrupt_every,
            "jam_every": self.jam_every,
            "blackout_every": self.blackout_every,
            "churn_tags": self.churn_tags,
            "checkpoint_every": self.checkpoint_every,
            "staleness_healthy_cycles": self.staleness_healthy_cycles,
            "max_consecutive_unhealthy": self.max_consecutive_unhealthy,
        }


@dataclass
class SoakReport:
    """Outcome of one soak run; ``violations`` empty means it survived."""

    config: SoakConfig
    n_cycles: int
    n_healthy: int
    n_unhealthy: int
    n_fallback: int
    n_crashes_fired: int
    n_crashes_skipped: int
    n_kills: int
    n_corruptions: int
    n_restarts: int
    n_warm_restarts: int
    n_cold_starts: int
    n_checkpoints: int
    escalations: Dict[str, int]
    violations: List[str]
    sim_duration_s: float
    wall_s: float
    fault_counters: Dict[str, float] = field(default_factory=dict)
    #: Per-SLO burn-rate verdicts (see ``repro.obs.health.slo``).
    slo: Dict[str, dict] = field(default_factory=dict)
    n_slo_alerts: int = 0
    n_incidents: int = 0
    health_status: str = "ok"

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def slo_ok(self) -> bool:
        """No burn-rate alert fired over the whole run."""
        return self.n_slo_alerts == 0

    def to_dict(self) -> dict:
        """The report as a JSON-ready dict (what ``--out`` writes)."""
        return {
            "config": self.config.to_dict(),
            "n_cycles": self.n_cycles,
            "n_healthy": self.n_healthy,
            "n_unhealthy": self.n_unhealthy,
            "n_fallback": self.n_fallback,
            "n_crashes_fired": self.n_crashes_fired,
            "n_crashes_skipped": self.n_crashes_skipped,
            "n_kills": self.n_kills,
            "n_corruptions": self.n_corruptions,
            "n_restarts": self.n_restarts,
            "n_warm_restarts": self.n_warm_restarts,
            "n_cold_starts": self.n_cold_starts,
            "n_checkpoints": self.n_checkpoints,
            "escalations": dict(self.escalations),
            "violations": list(self.violations),
            "sim_duration_s": round(self.sim_duration_s, 6),
            "wall_s": round(self.wall_s, 3),
            "fault_counters": dict(self.fault_counters),
            "slo": dict(self.slo),
            "n_slo_alerts": self.n_slo_alerts,
            "n_incidents": self.n_incidents,
            "health_status": self.health_status,
            "slo_ok": self.slo_ok,
            "ok": self.ok,
        }


# ----------------------------------------------------------------------
# Schedule construction (all pre-run, all seeded)
# ----------------------------------------------------------------------
def _static_schedules(
    config: SoakConfig, streams: RngStream, horizon_s: float
) -> Tuple[Tuple[ChannelJam, ...], Tuple[AntennaBlackout, ...]]:
    jams: List[ChannelJam] = []
    if config.jam_every > 0:
        rng = streams.child("soak.jam")
        for _ in range(config.n_cycles // config.jam_every):
            start = float(rng.uniform(30.0, horizon_s))
            lo, hi = config.jam_duration_s
            duration = float(rng.uniform(lo, hi))
            # Half the bursts are wide-band (-1), half hit channel 0.
            channel = -1 if rng.random() < 0.5 else 0
            jams.append(ChannelJam(channel, start, start + duration))
    blackouts: List[AntennaBlackout] = []
    if config.blackout_every > 0:
        rng = streams.child("soak.blackout")
        for _ in range(config.n_cycles // config.blackout_every):
            start = float(rng.uniform(30.0, horizon_s))
            lo, hi = config.blackout_duration_s
            duration = float(rng.uniform(lo, hi))
            antenna = int(rng.integers(0, 4))
            blackouts.append(AntennaBlackout(antenna, start, start + duration))
    return tuple(jams), tuple(blackouts)


def _apply_churn(
    setup: LabSetup, config: SoakConfig, streams: RngStream, horizon_s: float
) -> int:
    """Give some stationary tags seeded blocked intervals; returns count.

    Churn works through presence (blocked intervals), not add/remove, so
    the scene's tag count — and with it the checkpoint config hash — stays
    stable across the whole soak.  Mobile tags are never churned: the
    staleness invariant must stay meaningful for them.
    """
    if config.churn_tags == 0:
        return 0
    rng = streams.child("soak.churn")
    stationary = list(range(config.n_mobile, config.n_tags))
    chosen = sorted(
        int(i) for i in rng.choice(stationary, config.churn_tags, replace=False)
    )
    lo, hi = config.churn_block_s
    for index in chosen:
        intervals: List[Tuple[float, float]] = []
        t = float(rng.uniform(30.0, 120.0))
        while t < horizon_s:
            duration = float(rng.uniform(lo, hi))
            intervals.append((t, t + duration))
            t += duration + float(rng.uniform(4 * lo, 8 * hi))
        setup.scene.tags[index].blocked_intervals = tuple(intervals)
    return len(chosen)


def _corrupt_newest(store: CheckpointStore, rng) -> bool:
    """Damage the newest checkpoint generation in place; True if done."""
    generations = store.generations()
    if not generations:
        return False
    target = generations[0]
    data = bytearray(target.read_bytes())
    if len(data) < 16:
        return False
    if rng.random() < 0.5:
        # Flip bytes somewhere in the middle of the payload.
        for _ in range(8):
            position = int(rng.integers(8, len(data) - 1))
            data[position] ^= 0xFF
        target.write_bytes(bytes(data))
    else:
        # Truncate: a crash mid-write on a filesystem without the rename.
        target.write_bytes(bytes(data[: len(data) // 2]))
    return True


# ----------------------------------------------------------------------
def run(config: Optional[SoakConfig] = None) -> SoakReport:
    """One full soak run; deterministic in ``config.seed``.

    Without ``config.checkpoint_dir`` the checkpoints live in a temporary
    directory that is removed when the run ends.
    """
    config = config or SoakConfig()
    if config.checkpoint_dir:
        return _run(config, Path(config.checkpoint_dir))
    with tempfile.TemporaryDirectory(prefix="repro-soak-ckpt-") as tmp:
        return _run(config, Path(tmp))


def _run(config: SoakConfig, checkpoint_dir: Path) -> SoakReport:
    wall_start = time.perf_counter()
    streams = RngStream(config.seed)
    # Generous simulated-time horizon for the pre-run schedules: later
    # windows than the run reaches are simply never entered.
    horizon_s = config.n_cycles * (config.phase2_duration_s + 2.0) * 3 + 60.0

    jams, blackouts = _static_schedules(config, streams, horizon_s)
    plan = FaultPlan(
        report_loss=config.report_loss, jams=jams, blackouts=blackouts
    )
    setup = build_lab(
        n_tags=config.n_tags,
        n_mobile=config.n_mobile,
        seed=config.seed,
        fault_plan=plan,
    )
    _apply_churn(setup, config, streams, horizon_s)

    tagwatch_config = TagwatchConfig(
        phase2_duration_s=config.phase2_duration_s,
        min_phase1_fraction=0.5,
        population_grace_cycles=2,
    )
    store = CheckpointStore(checkpoint_dir / "soak.ckpt", retain=config.retain)
    recorder = (
        FlightRecorder(capacity_cycles=config.flight_capacity)
        if config.bundle_dir is not None
        else None
    )
    health = HealthMonitor(
        recorder=recorder,
        incident_dir=config.bundle_dir,
        watch_epcs=setup.mobile_epc_values,
        scene=setup.scene,
        metrics=setup.metrics,
    )
    supervisor = Supervisor(
        lambda: setup.tagwatch(tagwatch_config),
        config=SupervisorConfig(
            checkpoint_every=config.checkpoint_every,
            watchdog=WatchdogPolicy(),
        ),
        store=store,
        health=health,
    )
    mode = supervisor.start()
    if mode == "cold" and config.warmup_s > 0:
        assert supervisor.tagwatch is not None
        supervisor.tagwatch.warm_up(config.warmup_s)

    suite = InvariantSuite(
        setup.scene,
        setup.mobile_epc_values,
        staleness_healthy_cycles=config.staleness_healthy_cycles,
        max_consecutive_unhealthy=config.max_consecutive_unhealthy,
    )
    crash_rng = streams.child("soak.crash")
    corrupt_rng = streams.child("soak.corrupt")
    injector = setup.reader.injector  # type: ignore[attr-defined]

    n_healthy = n_fallback = n_kills = n_corruptions = crash_skips = 0
    escalations: Dict[str, int] = {}
    # The flight recorder doubles as the run's tracer so escalation-time
    # bundles hold real spans; without bundling the ambient tracer (a
    # no-op by default) stays in charge and the soak is byte-identical to
    # pre-health runs.
    with use_tracer(recorder) if recorder is not None else nullcontext():
        for i in range(config.n_cycles):
            if config.crash_every > 0 and i % config.crash_every == (
                config.crash_every // 2
            ):
                lo, hi = config.crash_downtime_s
                crash = ReaderCrash(
                    at_s=setup.reader.time_s
                    + float(crash_rng.uniform(0.1, 2.0)),
                    downtime_s=float(crash_rng.uniform(lo, hi)),
                )
                try:
                    injector.schedule_crash(crash)
                except ValueError:
                    crash_skips += 1  # previous crash window still open
            if config.kill_every > 0 and i % config.kill_every == (
                config.kill_every - 1
            ):
                supervisor.force_restart("soak kill")
                n_kills += 1
            if config.corrupt_every > 0 and i % config.corrupt_every == (
                config.corrupt_every - 1
            ):
                if _corrupt_newest(store, corrupt_rng):
                    n_corruptions += 1
            supervised = supervisor.run_cycle()
            assert supervisor.tagwatch is not None
            new_violations = suite.check(supervised, supervisor.tagwatch)
            if new_violations:
                health.incident(
                    reason=new_violations[0].name,
                    kind="invariant",
                    t_s=setup.reader.time_s,
                    cycle_index=supervised.index,
                    config_hash=supervisor.config_hash,
                    checkpoint_generation=supervisor.checkpoints_written,
                )
            if supervised.healthy:
                n_healthy += 1
            if supervised.result.fallback:
                n_fallback += 1
            if supervised.escalation.name != "HEALTHY":
                name = supervised.escalation.name
                escalations[name] = escalations.get(name, 0) + 1

    metrics = setup.metrics.to_dict() if setup.metrics is not None else {}
    counters = {
        name: entry["value"]
        for name, entry in metrics.items()
        if entry.get("type") == "counter"
        and name.startswith(("faults.", "client.", "runtime."))
    }
    return SoakReport(
        config=config,
        n_cycles=config.n_cycles,
        n_healthy=n_healthy,
        n_unhealthy=config.n_cycles - n_healthy,
        n_fallback=n_fallback,
        n_crashes_fired=injector.n_crashes_fired,
        n_crashes_skipped=crash_skips,
        n_kills=n_kills,
        n_corruptions=n_corruptions,
        n_restarts=supervisor.restarts,
        n_warm_restarts=supervisor.warm_restarts,
        n_cold_starts=supervisor.cold_starts,
        n_checkpoints=supervisor.checkpoints_written,
        escalations=escalations,
        violations=[str(v) for v in suite.violations],
        sim_duration_s=setup.reader.time_s,
        wall_s=time.perf_counter() - wall_start,
        fault_counters=counters,
        slo=health.engine.verdicts(),
        n_slo_alerts=health.engine.n_alerts,
        n_incidents=len(health.incidents),
        health_status=health.status,
    )


def run_many(
    config: Optional[SoakConfig] = None,
    runs: int = 1,
    workers: Optional[int] = None,
) -> List[SoakReport]:
    """Independent soak replicas, seeds spawned from ``config.seed``.

    Each replica is the base config with a ``SeedSequence``-spawned child
    seed (and its own temp checkpoint directory), so the replica set is a
    pure function of ``(config.seed, runs)`` regardless of ``workers``.
    """
    config = config or SoakConfig()
    if runs < 1:
        raise ValueError("need at least one run")
    tasks = [
        (replace(config, seed=child_seed, checkpoint_dir=None,
                 bundle_dir=None),)
        for child_seed in spawn_seeds(config.seed, runs)
    ]
    return parallel_map(run, tasks, workers=workers)


def format_report(report: SoakReport) -> str:
    """Human-readable soak summary (the CLI's output)."""
    rows = [
        ["cycles", report.n_cycles],
        ["healthy / unhealthy", f"{report.n_healthy} / {report.n_unhealthy}"],
        ["fallback cycles", report.n_fallback],
        ["reader crashes fired", report.n_crashes_fired],
        ["middleware kills", report.n_kills],
        ["checkpoint corruptions", report.n_corruptions],
        ["supervised restarts", report.n_restarts],
        ["warm / cold starts",
         f"{report.n_warm_restarts} / {report.n_cold_starts}"],
        ["checkpoints written", report.n_checkpoints],
        ["escalations",
         ", ".join(f"{k}={v}" for k, v in sorted(report.escalations.items()))
         or "-"],
        ["simulated time", f"{report.sim_duration_s:.0f} s"],
        ["invariant violations", len(report.violations)],
        ["SLO alerts / incidents",
         f"{report.n_slo_alerts} / {report.n_incidents}"],
        ["health status", report.health_status],
    ]
    title = (
        f"Chaos soak (seed {report.config.seed}): "
        + ("SURVIVED" if report.ok else "VIOLATIONS")
    )
    out = format_table(["metric", "value"], rows, title=title)
    if report.violations:
        out += "\n" + "\n".join(report.violations[:20])
        if len(report.violations) > 20:
            out += f"\n... and {len(report.violations) - 20} more"
    return out
