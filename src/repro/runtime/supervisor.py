"""Watchdog supervision and warm restart for the Tagwatch loop.

A deployment that runs unattended needs an answer to every way a cycle can
go wrong, not just the graceful ones.  The :class:`Supervisor` wraps a
:class:`~repro.core.tagwatch.Tagwatch` (built by a caller-supplied factory
so it can be *rebuilt* after a crash) and enforces:

- **deadlines on simulated time** — a cycle, or either of its phases,
  taking longer than the watchdog policy allows marks the cycle unhealthy
  (a stuck LLRP session spends its retry backoffs on the simulated clock,
  so "stuck" is visible as elapsed time, exactly as on real hardware);
- **an escalation ladder** — consecutive unhealthy cycles escalate from
  *retry* (next cycle runs normally, after LLRP session recovery if the
  keepalive gap is past its bound) to *full-inventory fallback* (Phase II
  forced to read-everything until confidence returns) to *supervised
  restart* (tear the middleware down, rebuild it, and warm-restart from
  the last good checkpoint);
- **crash-safe checkpointing** — every ``checkpoint_every`` healthy cycles
  the Tagwatch state is snapshotted through a
  :class:`~repro.runtime.checkpoint.CheckpointStore`; a restart resumes
  Phase II scheduling from that state instead of relearning from scratch,
  and a snapshot whose config hash does not match the live deployment is
  rejected in favour of a logged cold start.

Every watchdog fire, escalation step, restart, and checkpoint write/load
is emitted as a trace event (category ``runtime``) and counted in the
metrics registries, so recovery overhead shows up in telemetry exports and
Perfetto traces alongside the regular cycle budget.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.persistence import SnapshotMismatchError
from repro.core.tagwatch import CycleResult, Tagwatch
from repro.obs import get_metrics
from repro.obs.logging import get_logger
from repro.obs.tracer import get_tracer
from repro.runtime.checkpoint import (
    CheckpointStore,
    CheckpointUnavailable,
    config_fingerprint,
)

_log = get_logger("repro.runtime.supervisor")

ObservationCallback = Callable[[object], None]


class EscalationLevel(enum.IntEnum):
    """Rung of the recovery ladder applied after a cycle completed."""

    HEALTHY = 0
    RETRY = 1
    FULL_INVENTORY = 2
    RESTART = 3


@dataclass(frozen=True)
class WatchdogPolicy:
    """Deadlines and escalation knobs, all on simulated time."""

    #: A cycle (Phase I + assessment + Phase II) longer than this fires.
    cycle_deadline_s: float = 120.0
    #: Either phase alone longer than this fires.
    phase_deadline_s: float = 90.0
    #: Keepalive gap (time since the last successful reader operation)
    #: beyond which escalation tears down and re-establishes the session.
    keepalive_gap_s: float = 30.0
    #: Simulated time the supervisor waits after an unhealthy cycle before
    #: the next attempt — the recovery analogue of retry backoff, and what
    #: lets a crashed reader's downtime actually elapse.
    unhealthy_backoff_s: float = 2.0
    #: How many cycles Phase II stays forced to full inventory at rung 2.
    full_inventory_cycles: int = 2
    #: Hard cap on supervised restarts (None = unbounded).
    max_restarts: Optional[int] = None

    def __post_init__(self) -> None:
        if self.cycle_deadline_s <= 0 or self.phase_deadline_s <= 0:
            raise ValueError("watchdog deadlines must be positive")
        if self.keepalive_gap_s <= 0:
            raise ValueError("keepalive gap bound must be positive")
        if self.unhealthy_backoff_s < 0:
            raise ValueError("unhealthy backoff must be non-negative")
        if self.full_inventory_cycles < 1:
            raise ValueError("full-inventory rung needs at least one cycle")
        if self.max_restarts is not None and self.max_restarts < 0:
            raise ValueError("max restarts must be non-negative")


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervisor knobs (checkpoint cadence + watchdog policy)."""

    #: Healthy cycles between snapshots; 0 disables checkpointing.
    checkpoint_every: int = 25
    watchdog: WatchdogPolicy = field(default_factory=WatchdogPolicy)

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint cadence must be non-negative")


@dataclass
class SupervisedCycle:
    """One cycle plus the supervisor's verdict and recovery actions."""

    result: CycleResult
    healthy: bool
    #: Why the watchdog fired (empty when healthy).
    reasons: List[str]
    #: Ladder rung applied *after* this cycle (HEALTHY when none).
    escalation: EscalationLevel
    #: This cycle ran under a forced full-inventory Phase II.
    forced_fallback: bool
    #: This cycle was the first after a supervised restart.
    after_restart: bool
    #: A checkpoint was written after this cycle.
    checkpointed: bool

    @property
    def index(self) -> int:
        return self.result.index


class Supervisor:
    """Runs Tagwatch cycles under watchdog supervision.

    Parameters
    ----------
    factory:
        Builds a fresh :class:`Tagwatch` over the deployment's (persistent)
        reader.  Called once at start and again on every supervised
        restart — exactly what a process manager does to a crashed
        middleware, while the warehouse keeps existing.
    config:
        Checkpoint cadence and watchdog policy.
    store:
        Optional checkpoint store; without one, restarts are cold.
    config_hash:
        Fingerprint guarding warm restarts; computed from the live scene
        and Tagwatch config when omitted.
    health:
        Optional :class:`~repro.obs.health.HealthMonitor`.  Every cycle is
        folded into its SLO engine, and escalations / forced restarts cut
        incident bundles from its flight recorder (one per unhealthy
        episode; see :meth:`HealthMonitor.incident`).
    """

    def __init__(
        self,
        factory: Callable[[], Tagwatch],
        config: Optional[SupervisorConfig] = None,
        store: Optional[CheckpointStore] = None,
        config_hash: Optional[str] = None,
        health=None,
    ) -> None:
        self.factory = factory
        self.config = config or SupervisorConfig()
        self.store = store
        self.health = health
        self.tagwatch: Optional[Tagwatch] = None
        self._config_hash = config_hash
        self._subscribers: List[ObservationCallback] = []
        self._strikes = 0
        self._force_fallback_remaining = 0
        self._just_restarted = False
        self.restarts = 0
        self.warm_restarts = 0
        self.cold_starts = 0
        self.checkpoints_written = 0

    # ------------------------------------------------------------------
    def subscribe(self, callback: ObservationCallback) -> None:
        """Register a reading consumer that survives supervised restarts."""
        self._subscribers.append(callback)
        if self.tagwatch is not None:
            self.tagwatch.subscribe(callback)

    @property
    def config_hash(self) -> str:
        if self._config_hash is None:
            if self.tagwatch is None:
                self._build()
            assert self.tagwatch is not None
            self._config_hash = config_fingerprint(
                self.tagwatch.client.reader.scene, self.tagwatch.config
            )
        return self._config_hash

    def _metric_inc(self, name: str, amount: float = 1) -> None:
        registries = []
        shared = getattr(self.tagwatch, "metrics", None)
        if shared is not None:
            registries.append(shared)
        ambient = get_metrics()
        if ambient is not None and ambient is not shared:
            registries.append(ambient)
        for registry in registries:
            registry.counter(name).inc(amount)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _build(self) -> None:
        self.tagwatch = self.factory()
        for callback in self._subscribers:
            self.tagwatch.subscribe(callback)

    def _try_warm_restore(self) -> str:
        """Restore from the newest compatible checkpoint; returns the mode."""
        assert self.tagwatch is not None
        if self.store is None:
            self.cold_starts += 1
            return "cold"
        try:
            envelope, path = self.store.load_latest(self.config_hash)
        except SnapshotMismatchError as exc:
            # Resuming state learned under a different deployment would
            # poison the run; degrade to a cold start, loudly.
            _log.warning(f"checkpoint rejected, cold-starting: {exc}")
            self._metric_inc("runtime.checkpoint_mismatches")
            self.cold_starts += 1
            return "cold"
        except CheckpointUnavailable:
            self.cold_starts += 1
            return "cold"
        self.tagwatch.restore_state(envelope["payload"])  # type: ignore[arg-type]
        self.warm_restarts += 1
        self._metric_inc("runtime.warm_restarts")
        _log.info(
            f"warm restart from {path} "
            f"(cycle {envelope.get('cycle_index')}, "
            f"t={float(envelope.get('sim_time_s', 0.0)):.1f}s)"
        )
        return "warm"

    def start(self) -> str:
        """Build the middleware; returns ``"warm"`` or ``"cold"``."""
        self._build()
        return self._try_warm_restore()

    def force_restart(self, reason: str = "killed") -> str:
        """Simulate a middleware process death and supervised respawn.

        State accumulated since the last checkpoint is lost — exactly the
        crash semantics the chaos soak harness exercises.  Returns the
        restart mode (``"warm"`` / ``"cold"``).
        """
        mode = self._restart(reason)
        if self.health is not None and self.tagwatch is not None:
            self.health.incident(
                reason=reason,
                kind="kill",
                t_s=self.tagwatch.client.reader.time_s,
                cycle_index=self.tagwatch._cycle_index,
                config_hash=self.config_hash,
                checkpoint_generation=self.checkpoints_written,
            )
        return mode

    def _restart(self, reason: str) -> str:
        policy = self.config.watchdog
        if (
            policy.max_restarts is not None
            and self.restarts >= policy.max_restarts
        ):
            raise RuntimeError(
                f"supervisor exceeded {policy.max_restarts} restarts"
            )
        self.restarts += 1
        self._metric_inc("runtime.restarts")
        now = (
            self.tagwatch.client.reader.time_s
            if self.tagwatch is not None
            else 0.0
        )
        get_tracer().event(
            "supervisor.restart", t=now, category="runtime", reason=reason
        )
        self._build()
        mode = self._try_warm_restore()
        # First cycle back reads everything: re-seed the population and
        # the assessment before trusting selective schedules again.
        self._force_fallback_remaining = max(self._force_fallback_remaining, 1)
        self._just_restarted = True
        self._strikes = 0
        return mode

    def checkpoint_now(self) -> Optional[int]:
        """Write a snapshot immediately; returns its size (None = no store)."""
        if self.store is None or self.tagwatch is None:
            return None
        reader = self.tagwatch.client.reader
        tracer = get_tracer()
        span = tracer.begin("checkpoint", t=reader.time_s, category="runtime")
        n_bytes = self.store.save(
            self.tagwatch.state_dict(),
            config_hash=self.config_hash,
            sim_time_s=reader.time_s,
            cycle_index=self.tagwatch._cycle_index,
        )
        tracer.end(span, t=reader.time_s, n_bytes=n_bytes)
        self.checkpoints_written += 1
        return n_bytes

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _health(self, result: CycleResult) -> List[str]:
        policy = self.config.watchdog
        reasons = []
        if result.degraded:
            reasons.append("cycle degraded (failed reader operations)")
        if result.cycle_duration_s > policy.cycle_deadline_s:
            reasons.append(
                f"cycle deadline exceeded "
                f"({result.cycle_duration_s:.1f}s > "
                f"{policy.cycle_deadline_s:.1f}s)"
            )
        phase1 = result.phase1_end_s - result.phase1_start_s
        phase2 = result.phase2_end_s - result.phase1_end_s
        if phase1 > policy.phase_deadline_s:
            reasons.append(f"phase I deadline exceeded ({phase1:.1f}s)")
        if phase2 > policy.phase_deadline_s:
            reasons.append(f"phase II deadline exceeded ({phase2:.1f}s)")
        return reasons

    def _recover_session_if_stale(self) -> None:
        assert self.tagwatch is not None
        client = self.tagwatch.client
        gap = getattr(client, "keepalive_gap_s", 0.0)
        if gap > self.config.watchdog.keepalive_gap_s and hasattr(
            client, "recover_session"
        ):
            self._metric_inc("runtime.session_recoveries")
            client.recover_session()

    def _escalate(self) -> EscalationLevel:
        """One rung up the ladder; returns the level applied."""
        policy = self.config.watchdog
        assert self.tagwatch is not None
        reader = self.tagwatch.client.reader
        if self._strikes == 1:
            level = EscalationLevel.RETRY
            self._recover_session_if_stale()
        elif self._strikes == 2:
            level = EscalationLevel.FULL_INVENTORY
            self._force_fallback_remaining = policy.full_inventory_cycles
            self._recover_session_if_stale()
        else:
            level = EscalationLevel.RESTART
        self._metric_inc("runtime.escalations")
        get_tracer().event(
            "supervisor.escalate",
            t=reader.time_s,
            category="runtime",
            level=level.name,
            strikes=self._strikes,
        )
        if self.health is not None:
            # One bundle per unhealthy episode: further rungs of this
            # ladder are deduplicated inside the monitor.
            self.health.incident(
                reason=level.name.lower(),
                kind="escalation",
                t_s=reader.time_s,
                cycle_index=self.tagwatch._cycle_index,
                config_hash=self.config_hash,
                checkpoint_generation=self.checkpoints_written,
            )
        # Recovery backoff: give a dead reader time to reboot (and an open
        # circuit breaker time to half-close) before the next attempt.
        if policy.unhealthy_backoff_s > 0:
            reader.advance_clock(policy.unhealthy_backoff_s)
        if level is EscalationLevel.RESTART:
            self._restart("escalation ladder")
        return level

    def run_cycle(self) -> SupervisedCycle:
        """One supervised cycle: run, judge, checkpoint or escalate."""
        if self.tagwatch is None:
            self.start()
        assert self.tagwatch is not None
        after_restart, self._just_restarted = self._just_restarted, False
        forced = self._force_fallback_remaining > 0
        result = self.tagwatch.run_cycle(force_fallback=forced)
        if forced:
            self._force_fallback_remaining -= 1
        reasons = self._health(result)
        healthy = not reasons
        if self.health is not None:
            self.health.observe_cycle(
                result,
                healthy=healthy,
                reasons=reasons,
                client=self.tagwatch.client,
            )
        escalation = EscalationLevel.HEALTHY
        checkpointed = False
        if healthy:
            self._strikes = 0
            every = self.config.checkpoint_every
            if (
                self.store is not None
                and every > 0
                and (result.index + 1) % every == 0
            ):
                self.checkpoint_now()
                checkpointed = True
        else:
            self._strikes += 1
            self._metric_inc("runtime.watchdog_fires")
            get_tracer().event(
                "watchdog.fire",
                t=self.tagwatch.client.reader.time_s,
                category="runtime",
                strikes=self._strikes,
                reasons="; ".join(reasons),
            )
            escalation = self._escalate()
        return SupervisedCycle(
            result=result,
            healthy=healthy,
            reasons=reasons,
            escalation=escalation,
            forced_fallback=forced,
            after_restart=after_restart,
            checkpointed=checkpointed,
        )

    def run(self, n_cycles: int) -> List[SupervisedCycle]:
        """Run several consecutive supervised cycles."""
        if n_cycles < 1:
            raise ValueError("need at least one cycle")
        return [self.run_cycle() for _ in range(n_cycles)]
