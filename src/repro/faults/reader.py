"""A :class:`~repro.reader.reader.SimReader` with faults at the radio edge.

``FaultyReader`` wraps every inventory round with a
:class:`~repro.faults.injector.FaultInjector`: tag reports may be dropped
(iid, burst, or antenna blackout), perturbed (phase spikes), duplicated,
delayed into the next round, or reordered — and scheduled connection drops
surface as :class:`~repro.reader.client.ReaderConnectionError` raised out of
the round, exactly where a broken LLRP/TCP socket would surface in sllurp.

Because faulting happens *after* the slot-accurate engine ran, the physics
(clock, channel hopping, slot draws) is untouched: a ``FaultPlan.none()``
reader is bit-identical to a plain ``SimReader`` with the same seed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, ReaderCrash
from repro.gen2.commands import Select
from repro.gen2.timing import LinkTiming, R420_PROFILE
from repro.reader.client import ReaderConnectionError
from repro.reader.reader import RoundResult, SimReader
from repro.util.metrics import MetricsRegistry
from repro.world.scene import Scene


class FaultyReader(SimReader):
    """SimReader whose report stream passes through a fault injector."""

    def __init__(
        self,
        scene: Scene,
        plan: FaultPlan,
        timing: LinkTiming = R420_PROFILE,
        seed: int = 0,
        fault_seed: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        **kwargs,
    ) -> None:
        super().__init__(scene, timing=timing, seed=seed, **kwargs)
        self.injector = FaultInjector(
            plan,
            seed=self._streams.child_seed("faults") if fault_seed is None else fault_seed,
            metrics=metrics,
        )
        #: Bumped on every crash: reader-held session state (registered
        #: ROSpecs, Select flags) did not survive the reboot.  Clients
        #: compare epochs after reconnecting to know whether to re-issue.
        self.session_epoch = 0
        self._last_crash: Optional[ReaderCrash] = None

    @property
    def metrics(self) -> MetricsRegistry:
        return self.injector.metrics

    def _session_lost(self, crash: ReaderCrash) -> None:
        if crash is not self._last_crash:
            self._last_crash = crash
            self.session_epoch += 1

    def _crash_possible(self) -> bool:
        return (
            self.injector._current_crash is not None
            or bool(self.injector.pending_crashes)
        )

    # ------------------------------------------------------------------
    def inventory_round(
        self,
        antenna_index: int,
        selects: Sequence[Select] = (),
        max_duration_s: Optional[float] = None,
    ) -> RoundResult:
        crash = self.injector.blocking_crash(self.time_s)
        if crash is not None:
            # The box is down: the operation fails instantly, without
            # advancing time — recovery time is the *caller's* backoff.
            self._session_lost(crash)
            raise ReaderConnectionError(
                f"reader down: crashed at t={crash.at_s:.3f}s, "
                f"rebooting at t={crash.up_at_s:.3f}s"
            )
        if self.injector.plan.is_noop and not self._crash_possible():
            return super().inventory_round(antenna_index, selects, max_duration_s)
        round_start_s = self.time_s
        result = super().inventory_round(antenna_index, selects, max_duration_s)

        crashed = self.injector.take_crash(round_start_s, self.time_s)
        if crashed is not None:
            # The reader died mid-round: the round's reports are gone and
            # the session state died with the process.
            self._session_lost(crashed)
            self.injector.metrics.counter("faults.reports_lost_crash").inc(
                len(result.reports)
            )
            raise ReaderConnectionError(
                f"reader crashed at t={crashed.at_s:.3f}s, "
                f"rebooting at t={crashed.up_at_s:.3f}s"
            )

        dropped_at = self.injector.take_disconnect(round_start_s, self.time_s)
        if dropped_at is not None:
            # Everything this operation buffered is in flight on a dead
            # socket; the client sees a transport error, not reports.
            self.injector.metrics.counter(
                "faults.reports_lost_disconnect"
            ).inc(len(result.reports))
            raise ReaderConnectionError(
                f"reader connection dropped at t={dropped_at:.3f}s"
            )

        observations: List = self.injector.apply_round(result.observations)
        return RoundResult(
            observations, result.log, result.antenna_index, result.channel_index
        )
