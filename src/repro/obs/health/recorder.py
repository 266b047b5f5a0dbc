"""A bounded ring-buffer tracer: the last N cycles, always on.

A production deployment cannot afford an unbounded trace, but the first
question after an incident is always "what were the last few cycles
doing?".  The :class:`FlightRecorder` answers it: a drop-in
:class:`~repro.obs.tracer.Tracer` that retains only the most recent
``capacity_cycles`` completed top-level spans (plus everything nested
under them and the events between them), evicting the oldest cycle's
records as new ones complete.

Because records land in completion order and a top-level (depth-0) span
closes only after all of its children, a "cycle" is a contiguous slice of
``records`` ending at the depth-0 span — so eviction is a single
``del records[:cut]``.  Memory is bounded by the capacity times the
per-cycle record volume; with ``detail="round"`` (the default here) that
is a few dozen records per cycle.

Eviction is observable through the ``evicted_spans`` / ``evicted_events``
tallies (what an incident bundle reports as its truncation note).
``absorb()`` keeps the merged sequence identical to a sequential run's
before applying the same eviction rule, so same-seed flight recordings —
and the incident bundles cut from them — are byte-identical at any
worker count.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, List, Tuple

from repro.obs.tracer import Record, Span, Tracer

__all__ = ["FlightRecorder", "DEFAULT_CAPACITY_CYCLES"]

#: Enough context to see an escalation ladder develop (strikes build over
#: consecutive cycles) without holding a whole soak run in memory.
DEFAULT_CAPACITY_CYCLES = 32


class FlightRecorder(Tracer):
    """A Tracer retaining the last ``capacity_cycles`` top-level spans."""

    def __init__(
        self,
        capacity_cycles: int = DEFAULT_CAPACITY_CYCLES,
        wall_clock: Callable[[], float] = time.perf_counter,
        detail: str = "round",
    ) -> None:
        if capacity_cycles < 1:
            raise ValueError("flight recorder needs capacity >= 1 cycle")
        super().__init__(wall_clock=wall_clock, detail=detail)
        self.capacity_cycles = capacity_cycles
        #: ``records`` index one past each retained depth-0 span, oldest
        #: first: segment k is ``records[ends[k-1]:ends[k]]``.
        self._segment_ends: Deque[int] = deque()
        self.evicted_spans = 0
        self.evicted_events = 0
        #: Ring of (cycle_index, t_s, metrics dict) snapshots; see
        #: :meth:`snapshot_metrics`.
        self.metric_snapshots: Deque[Tuple[int, float, dict]] = deque(
            maxlen=capacity_cycles
        )

    # ------------------------------------------------------------------
    @property
    def n_cycles_retained(self) -> int:
        """Completed top-level spans currently held in the buffer."""
        return len(self._segment_ends)

    def end(self, span: Span, t: float, **args: object) -> Span:
        closed = super().end(span, t, **args)
        if closed.depth == 0:
            self._segment_ends.append(len(self.records))
            self._trim()
        return closed

    def absorb(self, records: List[Record]) -> None:
        super().absorb(records)
        # Absorbed batches can contain any number of re-anchored depth-0
        # spans, possibly interleaved with this tracer's own boundaries in
        # id-space; a rescan is simpler than merging and absorb runs once
        # per task, not per record.
        self._segment_ends = deque(
            i + 1
            for i, record in enumerate(self.records)
            if isinstance(record, Span) and record.depth == 0
        )
        self._trim()

    def snapshot_metrics(
        self, cycle_index: int, t_s: float, snapshot: dict
    ) -> None:
        """Retain one per-cycle metrics snapshot (ring, same capacity)."""
        self.metric_snapshots.append((int(cycle_index), float(t_s), snapshot))

    # ------------------------------------------------------------------
    def _trim(self) -> None:
        excess = len(self._segment_ends) - self.capacity_cycles
        if excess <= 0:
            return
        for _ in range(excess - 1):
            self._segment_ends.popleft()
        cut = self._segment_ends.popleft()
        evicted = self.records[:cut]
        del self.records[:cut]
        self._segment_ends = deque(
            end - cut for end in self._segment_ends
        )
        for record in evicted:
            if isinstance(record, Span):
                self.evicted_spans += 1
            else:
                self.evicted_events += 1
