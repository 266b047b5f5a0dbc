"""Runtime monitoring for a live Tagwatch deployment.

Aggregates per-cycle results into the operational statistics a deployment
dashboard would plot: rolling IRRs, target churn, fallback rate, scheduling
overheads, and coverage efficiency.  Purely observational — subscribing a
monitor never alters scheduling decisions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Set

import numpy as np

from repro.core.tagwatch import CycleResult
from repro.util.stats import percentile


@dataclass(frozen=True)
class MonitorSnapshot:
    """One aggregated view over the monitor's window of cycles."""

    n_cycles: int
    fallback_fraction: float
    mean_targets: float
    target_churn: float  # mean |targets_k ^ targets_{k-1}| per cycle
    mean_cycle_duration_s: float
    p50_overhead_ms: float
    p90_overhead_ms: float
    mean_collateral: float
    mean_phase2_reads: float
    #: Fraction of cycles that ran degraded (failed reader operations or a
    #: confidence-collapse fallback) — 0.0 on a healthy deployment.
    degraded_fraction: float = 0.0
    #: Mean Phase I reads per cycle; collapses towards zero under heavy
    #: report loss, which makes it the first dashboard signal of trouble.
    mean_phase1_reads: float = 0.0
    #: Cycles whose Phase I delivered no readings at all (total blackout).
    n_empty_phase1: int = 0


class TagwatchMonitor:
    """Rolling-window statistics over consecutive cycle results.

    >>> monitor = TagwatchMonitor(window=20)
    >>> for _ in range(30):
    ...     monitor.record(tagwatch.run_cycle())
    >>> monitor.snapshot().fallback_fraction
    """

    def __init__(self, window: int = 50) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self._cycles: Deque[CycleResult] = deque(maxlen=window)
        self._previous_targets: Optional[Set[int]] = None
        self._churns: Deque[int] = deque(maxlen=window)
        self.total_cycles = 0

    # ------------------------------------------------------------------
    def record(self, result: CycleResult) -> None:
        """Fold one cycle into the window."""
        self._cycles.append(result)
        self.total_cycles += 1
        if self._previous_targets is not None:
            churn = len(
                result.target_epc_values ^ self._previous_targets
            )
            self._churns.append(churn)
        self._previous_targets = set(result.target_epc_values)

    def attach(self, tagwatch) -> None:
        """Wrap a Tagwatch instance so every run_cycle() is recorded."""
        original = tagwatch.run_cycle

        def wrapped():
            """Run one cycle and record it in the monitor."""
            result = original()
            self.record(result)
            return result

        tagwatch.run_cycle = wrapped

    # ------------------------------------------------------------------
    def snapshot(self) -> MonitorSnapshot:
        """Aggregate the current window; raises when nothing recorded yet."""
        if not self._cycles:
            raise ValueError("no cycles recorded")
        cycles = list(self._cycles)
        overheads_ms = [
            (c.assessment_wall_s + c.scheduling_wall_s) * 1e3 for c in cycles
        ]
        collaterals = [
            c.plan.selection.n_collateral if c.plan else 0 for c in cycles
        ]
        return MonitorSnapshot(
            n_cycles=len(cycles),
            fallback_fraction=float(
                np.mean([c.fallback for c in cycles])
            ),
            mean_targets=float(
                np.mean([len(c.target_epc_values) for c in cycles])
            ),
            target_churn=float(np.mean(self._churns)) if self._churns else 0.0,
            mean_cycle_duration_s=float(
                np.mean([c.cycle_duration_s for c in cycles])
            ),
            p50_overhead_ms=percentile(overheads_ms, 50),
            p90_overhead_ms=percentile(overheads_ms, 90),
            mean_collateral=float(np.mean(collaterals)),
            mean_phase2_reads=float(
                np.mean([len(c.phase2_observations) for c in cycles])
            ),
            degraded_fraction=float(
                np.mean([bool(c.degraded) for c in cycles])
            ),
            mean_phase1_reads=float(
                np.mean([len(c.phase1_observations) for c in cycles])
            ),
            n_empty_phase1=sum(
                1 for c in cycles if not c.phase1_observations
            ),
        )

    def irr_by_tag(self) -> Dict[int, float]:
        """Per-tag IRR over the window (reads in window / window span)."""
        if not self._cycles:
            raise ValueError("no cycles recorded")
        t0 = self._cycles[0].phase1_start_s
        t1 = self._cycles[-1].phase2_end_s
        counts: Dict[int, int] = {}
        for cycle in self._cycles:
            for obs in cycle.phase1_observations:
                counts[obs.epc.value] = counts.get(obs.epc.value, 0) + 1
            for obs in cycle.phase2_observations:
                counts[obs.epc.value] = counts.get(obs.epc.value, 0) + 1
        span = max(t1 - t0, 1e-9)
        return {epc: n / span for epc, n in counts.items()}


class StalenessClock:
    """Healthy cycles since each watched tag was last read.

    The one staleness clock behind the health monitor's staleness SLO and
    the invariant suite's stale-mobile-tag check.  Each cycle, a watched
    tag that was read resets to 0; an unread tag that was absent or out
    of every antenna's range across the cycle is excused and also resets
    (its clock restarts when it becomes readable); any other unread tag
    counts the cycle if it was healthy and holds otherwise — a faulted
    cycle is the fault's miss, not the scheduler's.

    Without a ``scene`` (or for a value the scene does not carry) every
    tag counts as in coverage.
    """

    def __init__(self, epc_values: Iterable[int], scene=None) -> None:
        self.scene = scene
        #: Healthy unread cycles per watched EPC value, ascending by value.
        self.counts: Dict[int, int] = {
            value: 0 for value in sorted(set(epc_values))
        }
        self._tag_by_value = (
            {tag.epc.value: tag for tag in scene.tags}
            if scene is not None
            else {}
        )

    def _in_coverage(self, tag, t0: float, t1: float) -> bool:
        """Whether ``tag`` was present and in some antenna's range at
        both ends of ``[t0, t1]``."""
        if not (tag.is_present(t0) and tag.is_present(t1)):
            return False
        index = self.scene.index_of(tag.epc)
        for antenna_index in range(len(self.scene.antennas)):
            if index in self.scene.tags_in_range(antenna_index, t0) and (
                index in self.scene.tags_in_range(antenna_index, t1)
            ):
                return True
        return False

    def advance(self, result: CycleResult, healthy: bool) -> List[int]:
        """Advance every clock over one cycle; returns the values whose
        clock counted this cycle, ascending."""
        read_values = {
            obs.epc.value
            for obs in result.phase1_observations + result.phase2_observations
        }
        counted: List[int] = []
        for value in self.counts:
            if value in read_values:
                self.counts[value] = 0
                continue
            tag = self._tag_by_value.get(value)
            if tag is not None and not self._in_coverage(
                tag, result.phase1_start_s, result.phase2_end_s
            ):
                self.counts[value] = 0
            elif healthy:
                self.counts[value] += 1
                counted.append(value)
        return counted
