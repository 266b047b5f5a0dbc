"""A span tracer clocked on *simulated* time.

Tagwatch's whole claim is a timing argument: IRR is governed by slot-level
Gen2 contention and by how Phase I/Phase II cycles are scheduled.  This
module makes that time budget visible.  A :class:`Tracer` records

- **spans** — nested intervals on the simulated clock (Tagwatch cycle →
  Phase I / Phase II → inventory round → slot batch), each annotated with
  the wall-clock interval the simulation spent producing it, and
- **events** — instant points (a ``Select`` issued, a GMM classify verdict,
  a set-cover iteration, a client retry/backoff/circuit transition).

Timestamps are *explicit*: every layer that owns a clock (the reader's
``time_s``, the engine's running ``t``) passes it in, so there is no hidden
global clock and a trace of a seeded run is deterministic.  Wall-clock
annotations are captured on the side and excluded from the deterministic
exports by default (see :mod:`repro.obs.exporters`).

Instrumented code reaches the active tracer through :func:`get_tracer`;
the default is a shared :class:`NullTracer` whose methods are no-ops, so
un-traced runs pay only an attribute check per instrumentation site.
Install a real tracer for a scope with :func:`use_tracer`::

    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        tagwatch.run(4)
    print(len(tracer.records))
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Union

__all__ = [
    "Span",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]


@dataclass(slots=True)
class Span:
    """One closed interval of simulated time, nested under a parent span.

    ``slots=True``: spans are created twice per inventory round on the
    traced hot path, and slot-based instances both construct and read
    measurably faster than ``__dict__``-backed ones.
    """

    span_id: int
    parent_id: int  # 0 = root (no enclosing span)
    depth: int
    name: str
    category: str
    start_s: float
    end_s: float = 0.0
    args: Dict[str, object] = field(default_factory=dict)
    #: Wall-clock annotations (``time.perf_counter`` by default); excluded
    #: from deterministic exports.
    wall_start_s: float = 0.0
    wall_end_s: float = 0.0

    @property
    def duration_s(self) -> float:
        """Simulated duration of the span."""
        return self.end_s - self.start_s

    @property
    def wall_duration_s(self) -> float:
        """Wall-clock time spent while the span was open."""
        return self.wall_end_s - self.wall_start_s


@dataclass(slots=True)
class TraceEvent:
    """An instant point on the simulated timeline."""

    event_id: int
    parent_id: int  # id of the span open when the event fired (0 = none)
    name: str
    category: str
    t_s: float
    args: Dict[str, object] = field(default_factory=dict)


Record = Union[Span, TraceEvent]


class Tracer:
    """Records spans and events; single-threaded, explicitly clocked.

    ``records`` holds completed spans and events in completion order (a
    span is recorded when it *ends*, so children precede their parents).
    That order is a pure function of the simulated execution, which is what
    makes same-seed traces byte-identical after export.
    """

    #: Instrumentation sites check this before doing any per-item work.
    enabled: bool = True

    #: Whether per-frame spans are wanted.  Frame spans dominate trace
    #: volume (and tracing overhead) in inventory-heavy runs; aggregate
    #: users like the flight recorder ask for ``detail="round"`` and rely
    #: on the ``n_frames``/``n_slots`` args of the round span instead.
    frame_detail: bool = True

    def __init__(
        self,
        wall_clock: Callable[[], float] = time.perf_counter,
        detail: str = "frame",
    ) -> None:
        if detail not in ("frame", "round"):
            raise ValueError(f"detail must be 'frame' or 'round', got {detail!r}")
        self.records: List[Record] = []
        self._stack: List[Span] = []
        self._next_id = 1
        self._wall = wall_clock
        self.frame_detail = detail == "frame"

    # ------------------------------------------------------------------
    def _fresh_id(self) -> int:
        next_id = self._next_id
        self._next_id += 1
        return next_id

    @property
    def open_depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    def begin(self, name: str, t: float, category: str = "", **args: object) -> Span:
        """Open a span at simulated time ``t``; close it with :meth:`end`."""
        # ``args`` is the fresh dict ``**kwargs`` built for this call; the
        # span can own it without a defensive copy.
        span = Span(
            span_id=self._fresh_id(),
            parent_id=self._stack[-1].span_id if self._stack else 0,
            depth=len(self._stack),
            name=name,
            category=category,
            start_s=float(t),
            args=args,
            wall_start_s=self._wall(),
        )
        self._stack.append(span)
        return span

    def end(self, span: Span, t: float, **args: object) -> Span:
        """Close a span at simulated time ``t``; extra args are merged in."""
        span.end_s = float(t)
        span.wall_end_s = self._wall()
        if args:
            span.args.update(args)
        # Tolerate a child left open by an error path: close down to us.
        while self._stack and self._stack[-1] is not span:
            dangling = self._stack.pop()
            dangling.end_s = float(t)
            dangling.wall_end_s = span.wall_end_s
            self.records.append(dangling)
        if self._stack:
            self._stack.pop()
        self.records.append(span)
        return span

    def event(
        self,
        name: str,
        t: Optional[float] = None,
        category: str = "",
        **args: object,
    ) -> TraceEvent:
        """Record an instant event.

        ``t=None`` anchors the event to the enclosing span's start time —
        useful for pure-CPU work (set-cover iterations) that has no
        simulated clock of its own.
        """
        if t is None:
            t = self._stack[-1].start_s if self._stack else 0.0
        record = TraceEvent(
            event_id=self._fresh_id(),
            parent_id=self._stack[-1].span_id if self._stack else 0,
            name=name,
            category=category,
            t_s=float(t),
            args=args,
        )
        self.records.append(record)
        return record

    @contextmanager
    def span(
        self,
        name: str,
        clock: Callable[[], float],
        category: str = "",
        **args: object,
    ) -> Iterator[Span]:
        """Context manager reading ``clock()`` at entry and exit."""
        opened = self.begin(name, t=clock(), category=category, **args)
        try:
            yield opened
        finally:
            self.end(opened, t=clock())

    def absorb(self, records: List[Record]) -> None:
        """Merge records produced by *another* tracer (a worker process).

        Ids are remapped past this tracer's counter so span/event ids stay
        unique after the merge; parent links inside the absorbed batch are
        preserved.  Batch roots (parent 0) are re-anchored under the span
        currently open on *this* tracer, if any — exactly where the same
        records would have landed had the tasks run inline — and span
        depths shift by the open-stack depth to match.  The records are
        appended in their given order, so a parallel run that absorbs each
        task's batch in task order yields the same record sequence — same
        ids, parents and depths — as the equivalent sequential run, at any
        worker count.
        """
        if not records:
            return
        offset = self._next_id - 1
        anchor_id = self._stack[-1].span_id if self._stack else 0
        base_depth = len(self._stack)
        max_id = 0
        for record in records:
            if isinstance(record, Span):
                record.span_id += offset
                record.depth += base_depth
                max_id = max(max_id, record.span_id)
            else:
                record.event_id += offset
                max_id = max(max_id, record.event_id)
            if record.parent_id:
                record.parent_id += offset
            else:
                record.parent_id = anchor_id
            self.records.append(record)
        self._next_id = max_id + 1

    # ------------------------------------------------------------------
    def spans(self, name: Optional[str] = None) -> List[Span]:
        """Completed spans, optionally filtered by name."""
        return [
            r
            for r in self.records
            if isinstance(r, Span) and (name is None or r.name == name)
        ]

    def events(self, name: Optional[str] = None) -> List[TraceEvent]:
        """Recorded events, optionally filtered by name."""
        return [
            r
            for r in self.records
            if isinstance(r, TraceEvent) and (name is None or r.name == name)
        ]


class _NullSpan(Span):
    """Shared inert span handed out by the null tracer."""

    def __init__(self) -> None:
        super().__init__(span_id=0, parent_id=0, depth=0, name="", category="",
                         start_s=0.0)


_SHARED_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """A tracer whose every operation is a no-op (near-zero overhead).

    Instrumentation sites additionally gate per-item work (per-frame spans,
    per-iteration events) on :attr:`enabled`, so a disabled run's hot loops
    do no tracing work at all beyond one attribute check.
    """

    enabled = False

    def begin(self, name: str, t: float, category: str = "", **args: object) -> Span:
        return _SHARED_NULL_SPAN

    def end(self, span: Span, t: float, **args: object) -> Span:
        return span

    def event(
        self,
        name: str,
        t: Optional[float] = None,
        category: str = "",
        **args: object,
    ) -> TraceEvent:
        return _NULL_EVENT

    @contextmanager
    def span(
        self,
        name: str,
        clock: Callable[[], float],
        category: str = "",
        **args: object,
    ) -> Iterator[Span]:
        yield _SHARED_NULL_SPAN


_NULL_EVENT = TraceEvent(event_id=0, parent_id=0, name="", category="", t_s=0.0)

#: The process-wide default: tracing disabled.
NULL_TRACER = NullTracer()

_current: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The tracer instrumented code should write to (never ``None``)."""
    return _current


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install a tracer globally; returns the previous one."""
    global _current
    previous = _current
    _current = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def use_tracer(tracer: Optional[Tracer]) -> Iterator[Tracer]:
    """Install a tracer for the duration of a ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield get_tracer()
    finally:
        set_tracer(previous)
