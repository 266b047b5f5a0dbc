"""The Tagwatch middleware: the two-phase rate-adaptive reading loop.

Tagwatch sits between the LLRP client and the application (Fig 5).  Each
cycle (Fig 6):

- **Phase I** reads *every* tag once per antenna (a short, unfiltered
  inventory), feeds the readings to the motion assessor, and closes the
  assessment: which tags moved?
- **Phase II** covers the targets (moving + operator-concerned tags) with
  bitmasks chosen by the cost-weighted set cover and reads them exclusively
  for a comparatively long interval (default 5 s).

Safety valves from the paper are built in: when the moving fraction exceeds
``fallback_fraction`` (default 20%), scheduling cannot pay for itself and
the cycle falls back to plain read-everything; the same happens when there
are no targets at all (nothing to prioritise).  Every reading from either
phase is delivered to subscribers and to the history database, and Phase II
readings keep training the immobility models, which is what removes the
"cold start" (Section 4.3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import TagwatchConfig
from repro.core.history import ReadingHistory
from repro.core.motion import MotionAssessor
from repro.core.persistence import assessor_state, restore_assessor
from repro.core.scheduler import SchedulePlan, TargetScheduler
from repro.gen2.epc import EPC
from repro.gen2.inventory import InventoryLog
from repro.obs import get_metrics
from repro.obs.tracer import get_tracer
from repro.radio.measurement import TagObservation
from repro.reader.client import LLRPClient, ReaderConnectionError
from repro.reader.llrp import ROSpec, read_all_rospec
from repro.util.rng import derive_rng

ObservationCallback = Callable[[TagObservation], None]


@dataclass
class CycleResult:
    """Everything one Tagwatch cycle produced (for applications and evals)."""

    index: int
    phase1_observations: List[TagObservation]
    phase2_observations: List[TagObservation]
    phase1_log: InventoryLog
    phase2_log: Optional[InventoryLog]
    assessments: dict  # epc value -> TagAssessment
    target_epc_values: Set[int]
    plan: Optional[SchedulePlan]
    fallback: bool
    fallback_reason: str
    assessment_wall_s: float
    scheduling_wall_s: float
    phase1_start_s: float
    phase1_end_s: float
    phase2_end_s: float
    #: One of the cycle's reader operations failed even after the client's
    #: retries (connection storm, circuit breaker open); the cycle completed
    #: on whatever data survived.
    degraded: bool = False

    @property
    def cycle_duration_s(self) -> float:
        return self.phase2_end_s - self.phase1_start_s

    @property
    def n_tags_seen(self) -> int:
        return len(self.assessments)


class Tagwatch:
    """Rate-adaptive reading middleware over an LLRP client."""

    def __init__(self, client: LLRPClient, config: TagwatchConfig) -> None:
        self.client = client
        self.config = config
        self.assessor = MotionAssessor(
            params=config.gmm,
            vote_rule=config.vote_rule,
            expire_after_s=config.expire_after_s,
            key_by_channel=config.key_by_channel,
        )
        self.history = ReadingHistory()
        self.scheduler = TargetScheduler(
            cost_model=config.cost_model,
            max_mask_length=config.max_mask_length,
            method=config.selection_method,
            aispec_mode=config.aispec_mode,
            # A fixed seed keeps end-to-end replay: greedy set-cover ties
            # are resolved by random draw, so fresh entropy here would make
            # whole ROSpecs differ between same-seed runs.
            rng=derive_rng(0, "tagwatch.scheduler"),
        )
        self._subscribers: List[ObservationCallback] = []
        self._next_rospec_id = 1
        self._cycle_index = 0
        self._known_population: List[EPC] = []
        #: EPC value -> (EPC, cycle index last seen); backs the population
        #: grace window that tolerates partial Phase I reports.
        self._population_seen: Dict[int, Tuple[EPC, int]] = {}
        #: Metrics registry shared with a resilient client, when one is used.
        self.metrics = getattr(client, "metrics", None)

    # ------------------------------------------------------------------
    def subscribe(self, callback: ObservationCallback) -> None:
        """Register an upper application for reading delivery."""
        self._subscribers.append(callback)

    def _deliver(self, observations: Sequence[TagObservation]) -> None:
        for obs in observations:
            self.history.add(obs)
            for callback in self._subscribers:
                callback(obs)

    def _antenna_ids(self) -> Sequence[int]:
        return tuple(range(len(self.client.reader.scene.antennas)))

    def _fresh_rospec_id(self) -> int:
        rospec_id = self._next_rospec_id
        self._next_rospec_id += 1
        return rospec_id

    def _metric_inc(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    @staticmethod
    def _telemetry_inc(name: str, amount: float = 1) -> None:
        """Count into the ambient (opt-in) registry only.

        Kept separate from :attr:`metrics` — which is shared with the
        resilient client and pinned byte-for-byte by the golden traces —
        so enabling app-level telemetry never perturbs those exports.
        """
        registry = get_metrics()
        if registry is not None:
            registry.counter(name).inc(amount)

    @staticmethod
    def _telemetry_observe(name: str, value: float) -> None:
        registry = get_metrics()
        if registry is not None:
            registry.histogram(name).observe(value)

    def _execute(
        self, rospec: ROSpec
    ) -> Tuple[List[TagObservation], InventoryLog, bool]:
        """add/enable/start/delete one ROSpec through the LLRP client.

        Returns ``(observations, log, ok)``.  A connection failure that
        survives the client's own retries is absorbed here — the middleware
        degrades (empty reports, ``ok=False``) instead of crashing the
        deployment loop.
        """
        self.client.add_rospec(rospec)
        self.client.enable_rospec(rospec.rospec_id)
        try:
            reports, log = self.client.start_rospec(rospec.rospec_id)
            return reports, log, True
        except ReaderConnectionError:
            self._metric_inc("tagwatch.failed_operations")
            now = self.client.reader.time_s
            return [], InventoryLog(start_time_s=now, end_time_s=now), False
        finally:
            self.client.delete_rospec(rospec.rospec_id)

    # ------------------------------------------------------------------
    def _update_population(
        self, observations: Sequence[TagObservation], cycle_index: int = 0
    ) -> None:
        """Track the current population from Phase I reads (EPC-sorted).

        With ``population_grace_cycles > 0``, tags missing from this batch
        linger for that many cycles before eviction — partial-report
        tolerance, so one lossy inventory does not shrink the scheduler's
        coverage table.
        """
        for obs in observations:
            self._population_seen[obs.epc.value] = (obs.epc, cycle_index)
        grace = self.config.population_grace_cycles
        self._population_seen = {
            value: (epc, seen_at)
            for value, (epc, seen_at) in self._population_seen.items()
            if cycle_index - seen_at <= grace
        }
        self._known_population = [
            self._population_seen[v][0] for v in sorted(self._population_seen)
        ]

    # ------------------------------------------------------------------
    # Checkpointable state
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything a warm restart needs, as a JSON-serialisable dict.

        Captures the learned immobility models (with pending cycle votes),
        the tag registry/known population, the cycle counters, the
        scheduler's tie-break RNG state, and the history ledger.  Restoring
        this into a fresh Tagwatch over the same reader reproduces the
        uninterrupted run's scheduling decisions.
        """
        return {
            "cycle_index": self._cycle_index,
            "next_rospec_id": self._next_rospec_id,
            "assessor": assessor_state(self.assessor, include_votes=True),
            "population": [
                {
                    "epc": f"{epc.value:x}",
                    "length": epc.length,
                    "seen_at": seen_at,
                }
                for _, (epc, seen_at) in sorted(self._population_seen.items())
            ],
            "scheduler_rng": self.scheduler.rng.bit_generator.state,
            "history": self.history.registry(),
        }

    def restore_state(self, state: dict) -> None:
        """Warm-restart this instance from :meth:`state_dict` output."""
        self._cycle_index = int(state["cycle_index"])
        self._next_rospec_id = int(state["next_rospec_id"])
        self.assessor = restore_assessor(state["assessor"])
        self._population_seen = {}
        for record in state["population"]:
            epc = EPC(int(record["epc"], 16), int(record["length"]))
            self._population_seen[epc.value] = (epc, int(record["seen_at"]))
        self._known_population = [
            self._population_seen[v][0] for v in sorted(self._population_seen)
        ]
        self.scheduler.rng.bit_generator.state = state["scheduler_rng"]
        self.history.load_registry(state["history"])

    # ------------------------------------------------------------------
    def warm_up(self, duration_s: float) -> int:
        """Pre-train the immobility models with plain read-all inventory.

        Useful right after deployment (or in experiments, to factor the
        learning transient out of measurements): readings are delivered to
        the history and subscribers as usual, and the motion models mature
        without any scheduling in the way.  Returns the number of readings.
        """
        if duration_s <= 0:
            raise ValueError("warm-up duration must be positive")
        tracer = get_tracer()
        span = tracer.begin(
            "warmup",
            t=self.client.reader.time_s,
            category="tagwatch",
            duration_s=duration_s,
        )
        observations, _, _ = self._execute(
            read_all_rospec(self._fresh_rospec_id(), self._antenna_ids(), duration_s)
        )
        self._deliver(observations)
        self.assessor.observe_all(observations)
        self.assessor.assess()  # close the pseudo-cycle, clearing votes
        self._update_population(observations, self._cycle_index)
        tracer.end(
            span, t=self.client.reader.time_s, n_observations=len(observations)
        )
        return len(observations)

    def run_cycle(self, force_fallback: bool = False) -> CycleResult:
        """Execute one full Phase I + Phase II cycle.

        ``force_fallback=True`` makes Phase II a plain read-everything
        inventory regardless of the assessment — the supervised runtime's
        escalation ladder uses it to re-establish full coverage after a
        recovery, while Phase I and the model updates still run normally.
        """
        reader = self.client.reader
        tracer = get_tracer()
        cycle_index = self._cycle_index
        self._cycle_index += 1
        phase1_start = reader.time_s
        cycle_span = tracer.begin(
            "cycle", t=phase1_start, category="tagwatch", index=cycle_index
        )

        # ---- Phase I: read everything once ----------------------------
        prev_population_size = len(self._known_population)
        phase1_span = tracer.begin("phase1", t=phase1_start, category="tagwatch")
        phase1_obs, phase1_log, phase1_ok = self._execute(
            read_all_rospec(self._fresh_rospec_id(), self._antenna_ids())
        )
        phase1_end = reader.time_s
        tracer.end(
            phase1_span,
            t=phase1_end,
            n_observations=len(phase1_obs),
            n_rounds=phase1_log.n_rounds,
            n_slots=phase1_log.n_slots,
            ok=phase1_ok,
        )
        self._deliver(phase1_obs)

        # ---- Assessment ------------------------------------------------
        # CPU-only: the span has zero simulated width, but its wall-clock
        # annotation carries the real GMM cost (Fig 17's assessment term).
        assess_span = tracer.begin("assess", t=phase1_end, category="tagwatch")
        assess_start = time.perf_counter()
        self.assessor.observe_all(phase1_obs)
        assessments = self.assessor.assess()
        self.assessor.expire(reader.time_s)
        self._update_population(phase1_obs, cycle_index)
        moving = {
            epc for epc, verdict in assessments.items() if verdict.moving
        }
        present_values = {epc.value for epc in self._known_population}
        concerned = self.config.concerned_epc_values & present_values
        targets = moving | concerned
        assessment_wall = time.perf_counter() - assess_start
        if tracer.enabled:
            for epc_value in sorted(assessments):
                verdict = assessments[epc_value]
                tracer.event(
                    "gmm.classify",
                    t=phase1_end,
                    category="gmm",
                    epc=format(epc_value, "x"),
                    moving=verdict.moving,
                    n_readings=verdict.n_readings,
                    n_motion_flags=verdict.n_motion_flags,
                )
        tracer.end(
            assess_span,
            t=phase1_end,
            n_assessed=len(assessments),
            n_moving=len(moving),
            n_targets=len(targets),
        )

        # ---- Confidence check (graceful degradation) --------------------
        # A Phase I that saw far fewer tags than we know to exist is not an
        # assessment, it is a symptom (report loss, reader stall); trusting
        # it would schedule Phase II around missing evidence.
        low_confidence = False
        n_distinct = len({obs.epc.value for obs in phase1_obs})
        floor = self.config.min_phase1_fraction
        if floor > 0 and prev_population_size > 0:
            if n_distinct < floor * prev_population_size:
                low_confidence = True
                self._metric_inc("tagwatch.confidence_fallbacks")

        # ---- Scheduling decision ----------------------------------------
        n_seen = max(1, len(assessments))
        fallback = False
        fallback_reason = ""
        if force_fallback:
            fallback = True
            fallback_reason = "full inventory forced by supervisor"
        elif low_confidence:
            fallback = True
            fallback_reason = (
                f"phase I confidence collapsed: saw {n_distinct} of "
                f"{prev_population_size} known tags"
            )
        elif not targets:
            fallback = True
            fallback_reason = "no targets"
        elif len(targets) / n_seen > self.config.fallback_fraction:
            fallback = True
            fallback_reason = (
                f"moving fraction {len(targets) / n_seen:.2f} exceeds "
                f"{self.config.fallback_fraction:.2f}"
            )

        if fallback and tracer.enabled:
            tracer.event(
                "tagwatch.fallback",
                t=phase1_end,
                category="tagwatch",
                reason=fallback_reason,
            )

        plan: Optional[SchedulePlan] = None
        scheduling_wall = 0.0
        if not fallback:
            schedule_span = tracer.begin(
                "schedule", t=phase1_end, category="tagwatch"
            )
            antenna_hints: dict = {}
            for obs in phase1_obs:
                antenna_hints.setdefault(obs.epc.value, set()).add(
                    obs.antenna_index
                )
            plan = self.scheduler.plan(
                self._known_population,
                targets,
                self._antenna_ids(),
                self.config.phase2_duration_s,
                rospec_id=self._fresh_rospec_id(),
                antenna_hints=antenna_hints,
            )
            scheduling_wall = plan.planning_wall_s
            tracer.end(
                schedule_span,
                t=phase1_end,
                n_bitmasks=len(plan.selection.bitmasks),
                n_collateral=plan.selection.n_collateral,
                method=plan.selection.method,
            )
            if plan.rospec is None:  # pragma: no cover - targets were present
                fallback = True
                fallback_reason = "scheduler produced no bitmasks"

        # ---- Phase II ----------------------------------------------------
        if fallback:
            phase2_rospec = read_all_rospec(
                self._fresh_rospec_id(),
                self._antenna_ids(),
                self.config.phase2_duration_s,
            )
        else:
            assert plan is not None and plan.rospec is not None
            phase2_rospec = plan.rospec
        phase2_span = tracer.begin(
            "phase2",
            t=reader.time_s,
            category="tagwatch",
            mode="fallback" if fallback else "selective",
        )
        phase2_obs, phase2_log, phase2_ok = self._execute(phase2_rospec)
        tracer.end(
            phase2_span,
            t=reader.time_s,
            n_observations=len(phase2_obs),
            n_rounds=phase2_log.n_rounds,
            n_slots=phase2_log.n_slots,
            ok=phase2_ok,
        )
        self._deliver(phase2_obs)
        # Phase II readings keep training the immobility models; their
        # motion votes roll into the *next* cycle's assessment, which is how
        # a newly learned multipath mode stabilises after one cycle.
        self.assessor.observe_all(phase2_obs)

        tracer.end(
            cycle_span,
            t=reader.time_s,
            fallback=fallback,
            degraded=not (phase1_ok and phase2_ok) or low_confidence,
            n_targets=len(targets),
        )
        self._telemetry_inc("tagwatch.cycles")
        if fallback:
            self._telemetry_inc("tagwatch.fallback_cycles")
        self._telemetry_inc("tagwatch.phase1_reads", len(phase1_obs))
        self._telemetry_inc("tagwatch.phase2_reads", len(phase2_obs))
        self._telemetry_observe(
            "tagwatch.cycle_s", reader.time_s - phase1_start
        )
        self._telemetry_observe("tagwatch.assessment_wall_s", assessment_wall)
        self._telemetry_observe("tagwatch.scheduling_wall_s", scheduling_wall)

        return CycleResult(
            index=cycle_index,
            phase1_observations=phase1_obs,
            phase2_observations=phase2_obs,
            phase1_log=phase1_log,
            phase2_log=phase2_log,
            assessments=assessments,
            target_epc_values=targets,
            plan=plan,
            fallback=fallback,
            fallback_reason=fallback_reason,
            assessment_wall_s=assessment_wall,
            scheduling_wall_s=scheduling_wall,
            phase1_start_s=phase1_start,
            phase1_end_s=phase1_end,
            phase2_end_s=reader.time_s,
            degraded=not (phase1_ok and phase2_ok) or low_confidence,
        )

    def run(self, n_cycles: int) -> List[CycleResult]:
        """Run several consecutive cycles."""
        if n_cycles < 1:
            raise ValueError("need at least one cycle")
        return [self.run_cycle() for _ in range(n_cycles)]
