"""Deterministic realisation of a :class:`~repro.faults.plan.FaultPlan`.

One injector instance owns an independent random stream *per fault channel*
(loss, burst, phase, duplicate, delay, reorder), each derived from the
injector seed by name — enabling one fault never perturbs the draws of
another, and a disabled fault draws nothing at all.  That second property is
what makes ``FaultPlan.none()`` a strict no-op: the injected run is
bit-identical to an uninjected one.

The injector is stateful (burst channel state, pending delayed reports,
consumed disconnects) and must not be shared between readers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.plan import (
    AntennaBlackout,
    ChannelJam,
    FaultPlan,
    ReaderCrash,
)
from repro.radio.measurement import TagObservation
from repro.util.circular import TWO_PI
from repro.util.metrics import MetricsRegistry
from repro.util.rng import RngStream


class FaultInjector:
    """Applies a fault plan to per-round report batches, deterministically.

    Parameters
    ----------
    plan:
        The declarative fault description.
    seed:
        Root seed of the injector's private random streams.
    metrics:
        Optional registry receiving ``faults.*`` counters; a private one is
        created when omitted so callers can always read ``injector.metrics``.
    """

    def __init__(
        self,
        plan: FaultPlan,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.plan = plan
        self.seed = int(seed)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        streams = RngStream(self.seed)
        self._rng_loss = streams.child("faults.loss")
        self._rng_burst = streams.child("faults.burst")
        self._rng_phase = streams.child("faults.phase")
        self._rng_duplicate = streams.child("faults.duplicate")
        self._rng_delay = streams.child("faults.delay")
        self._rng_reorder = streams.child("faults.reorder")
        self._burst_bad = False
        self._held: List[TagObservation] = []
        self._pending_disconnects: List[float] = list(plan.disconnect_at_s)
        self._pending_crashes: List[ReaderCrash] = list(plan.crashes)
        self._current_crash: Optional[ReaderCrash] = None
        self.n_crashes_fired = 0

    # ------------------------------------------------------------------
    # Connection faults
    # ------------------------------------------------------------------
    def take_disconnect(self, start_s: float, end_s: float) -> Optional[float]:
        """Earliest scheduled disconnect inside (start_s, end_s], consumed.

        Returns the disconnect time, or ``None`` when the window is clear.
        Each scheduled disconnect fires exactly once per injector lifetime.
        """
        for i, t in enumerate(self._pending_disconnects):
            if start_s < t <= end_s:
                del self._pending_disconnects[i]
                self.metrics.counter("faults.disconnects").inc()
                return t
            if t > end_s:
                break
        return None

    # ------------------------------------------------------------------
    # Reader crashes
    # ------------------------------------------------------------------
    def schedule_crash(self, crash: ReaderCrash) -> None:
        """Add a crash window at runtime (the soak harness's chaos knob).

        The window must lie in the future and must not overlap any crash
        still pending — a reader cannot die while it is already dead.
        """
        current = self._current_crash
        windows = list(self._pending_crashes) + ([current] if current else [])
        for other in windows:
            if crash.at_s < other.up_at_s and other.at_s < crash.up_at_s:
                raise ValueError("crash window overlaps a pending crash")
        self._pending_crashes.append(crash)
        self._pending_crashes.sort(key=lambda c: c.at_s)

    def _fire_crash(self, crash: ReaderCrash) -> ReaderCrash:
        self._pending_crashes.remove(crash)
        self._current_crash = crash
        self.n_crashes_fired += 1
        self.metrics.counter("faults.crashes").inc()
        return crash

    def blocking_crash(self, time_s: float) -> Optional[ReaderCrash]:
        """The crash keeping the reader down at ``time_s``, if any.

        A pending crash whose window has been entered fires (once) as a
        side effect; a fired crash keeps blocking until its reboot time.
        """
        if self._current_crash is not None:
            if self._current_crash.covers(time_s):
                return self._current_crash
            self._current_crash = None
        for crash in self._pending_crashes:
            if crash.covers(time_s):
                return self._fire_crash(crash)
            if crash.at_s > time_s:
                break
        return None

    def take_crash(self, start_s: float, end_s: float) -> Optional[ReaderCrash]:
        """A crash that struck mid-operation, inside ``(start_s, end_s]``."""
        for crash in self._pending_crashes:
            if start_s < crash.at_s <= end_s:
                return self._fire_crash(crash)
            if crash.at_s > end_s:
                break
        return None

    @property
    def pending_crashes(self) -> Sequence[ReaderCrash]:
        return tuple(self._pending_crashes)

    # ------------------------------------------------------------------
    # Report faults
    # ------------------------------------------------------------------
    def apply_round(
        self, observations: Sequence[TagObservation]
    ) -> List[TagObservation]:
        """Run one round's reports through every enabled report fault.

        Held-back (delayed) reports from earlier rounds are flushed into
        this batch before reordering, matching an LLRP reader that buffers
        undelivered RO_ACCESS_REPORTs.
        """
        plan = self.plan
        out: List[TagObservation] = []
        # Reports held back in *earlier* rounds are due now; reports the
        # delay fault holds below wait for the round after this one.
        flushed, self._held = self._held, []
        self.metrics.counter("faults.reports_in").inc(len(observations))
        blackouts, jams = self._windows_in_round(observations)

        for obs in observations:
            if blackouts and any(
                b.covers(obs.antenna_index, obs.time_s) for b in blackouts
            ):
                self.metrics.counter("faults.dropped_blackout").inc()
                continue
            if jams and any(j.covers(obs.channel_index, obs.time_s) for j in jams):
                self.metrics.counter("faults.dropped_jamming").inc()
                continue
            if plan.burst_enter > 0 and self._burst_drop():
                self.metrics.counter("faults.dropped_burst").inc()
                continue
            if plan.report_loss > 0 and (
                self._rng_loss.random() < plan.report_loss
            ):
                self.metrics.counter("faults.dropped_loss").inc()
                continue
            if plan.phase_spike > 0 and (
                self._rng_phase.random() < plan.phase_spike
            ):
                obs = self._spike_phase(obs)
                self.metrics.counter("faults.phase_spikes").inc()
            out.append(obs)
            if plan.duplicate > 0 and (
                self._rng_duplicate.random() < plan.duplicate
            ):
                out.append(obs)
                self.metrics.counter("faults.duplicates").inc()

        if plan.delay > 0:
            kept: List[TagObservation] = []
            for obs in out:
                if self._rng_delay.random() < plan.delay:
                    self._held.append(obs)
                    self.metrics.counter("faults.delayed").inc()
                else:
                    kept.append(obs)
            out = kept
            # Held reports reach no counter until a later round flushes
            # them; the gauge accounts for the ones still waiting.
            self.metrics.gauge("faults.held").set(len(self._held))
        if flushed:
            # Flush older reports ahead of the fresh batch.
            out = flushed + out

        if plan.reorder > 0 and len(out) > 1 and (
            self._rng_reorder.random() < plan.reorder
        ):
            permutation = self._rng_reorder.permutation(len(out))
            out = [out[int(i)] for i in permutation]
            self.metrics.counter("faults.reordered_rounds").inc()

        self.metrics.counter("faults.reports_out").inc(len(out))
        return out

    # ------------------------------------------------------------------
    def _windows_in_round(
        self, observations: Sequence[TagObservation]
    ) -> Tuple[List[AntennaBlackout], List[ChannelJam]]:
        """The blackout and jam windows overlapping the round's read times.

        A window ``[start_s, end_s)`` can cover a report of the round only
        if it overlaps ``[min t, max t]``; the rest are dropped once here
        instead of being tested against every report.
        """
        plan = self.plan
        if not observations or not (plan.blackouts or plan.jams):
            return [], []
        times = [obs.time_s for obs in observations]
        first, last = min(times), max(times)
        return (
            [b for b in plan.blackouts if b.start_s <= last and b.end_s > first],
            [j for j in plan.jams if j.start_s <= last and j.end_s > first],
        )

    def _burst_drop(self) -> bool:
        """Advance the Gilbert-Elliott channel one report; True = erased."""
        if not self._burst_bad:
            if self._rng_burst.random() < self.plan.burst_enter:
                self._burst_bad = True
        if self._burst_bad:
            if self._rng_burst.random() < self.plan.burst_exit:
                self._burst_bad = False
            return True
        return False

    def _spike_phase(self, obs: TagObservation) -> TagObservation:
        spike = self._rng_phase.normal(0.0, self.plan.phase_spike_std_rad)
        phase = float(np.mod(obs.phase_rad + spike, TWO_PI))
        return obs._replace(phase_rad=phase)
