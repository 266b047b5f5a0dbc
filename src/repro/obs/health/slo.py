"""Declarative SLOs scored with multi-window burn-rate alerting.

The paper's thesis is that reading *rate* is a service-level quantity:
IRR, mobile-tag staleness, and recovery time degrade together under
mobility and faults.  This module makes those quantities first-class
objectives.  An :class:`SloSpec` names a target good-fraction (e.g. "99%
of cycles clear the IRR floor") and the :class:`SloEngine` scores a stream
of timestamped good/bad observations against it with the standard
multi-window **burn rate** rule:

    burn rate = (error rate over a window) / (error budget)

where the error budget is ``1 - target``.  An alert fires only when *both*
a short and a long window burn faster than the window pair's threshold —
the short window gives fast detection, the long window suppresses blips —
and stays latched until the short window recovers, so one sustained
breach produces one alert, not one per cycle.

Everything is evaluated on **simulated time**: the engine never reads a
wall clock, so the same seeded run produces byte-identical ``slo.*``
metrics, alert trace events, and verdicts at any worker count.

Monotonicity (tested with hypothesis): with timestamps fixed, flipping
any observation from good to bad can only raise every window's error
rate, hence every burn rate, hence the set of instants at which the pair
is *firing* — burn-rate alerting never rewards extra errors.  (The latched
alert *count* is deliberately not monotone: extra errors can merge two
breaches into one sustained breach, and one sustained breach is one
alert.)
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import get_tracer

__all__ = [
    "BurnWindow",
    "SloSpec",
    "SloAlert",
    "SloTracker",
    "SloEngine",
    "DEFAULT_WINDOWS",
]


@dataclass(frozen=True)
class BurnWindow:
    """One short/long window pair with its burn-rate threshold.

    The classic SRE pairing: the short window must confirm the long one so
    a burst that already ended cannot keep alerting, and the long window
    must confirm the short one so a single bad cycle cannot page.
    """

    short_s: float
    long_s: float
    #: Burn-rate multiple of the error budget at which the pair fires.
    threshold: float

    def __post_init__(self) -> None:
        if not 0 < self.short_s <= self.long_s:
            raise ValueError("need 0 < short_s <= long_s")
        if self.threshold <= 0:
            raise ValueError("burn threshold must be positive")


#: Fast-burn and slow-burn pairs on the simulated clock (cycles are a few
#: seconds, so these are minutes of simulated operation).
DEFAULT_WINDOWS: Tuple[BurnWindow, ...] = (
    BurnWindow(short_s=60.0, long_s=300.0, threshold=6.0),
    BurnWindow(short_s=300.0, long_s=1800.0, threshold=3.0),
)


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective: a target good-fraction plus windows."""

    name: str
    description: str = ""
    #: Required fraction of good observations (error budget = 1 - target).
    target: float = 0.99
    windows: Tuple[BurnWindow, ...] = DEFAULT_WINDOWS

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("an SLO needs a name")
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1)")
        if not self.windows:
            raise ValueError("an SLO needs at least one burn window")

    @property
    def budget(self) -> float:
        """The error budget: tolerated long-run error fraction."""
        return 1.0 - self.target


@dataclass(frozen=True)
class SloAlert:
    """One burn-rate alert, attributed to the observation that fired it."""

    slo: str
    t_s: float
    window: BurnWindow
    burn_short: float
    burn_long: float

    def to_dict(self) -> dict:
        """JSON-ready form (rounded floats, window pair flattened)."""
        return {
            "slo": self.slo,
            "t_s": round(self.t_s, 9),
            "short_s": self.window.short_s,
            "long_s": self.window.long_s,
            "threshold": self.window.threshold,
            "burn_short": round(self.burn_short, 9),
            "burn_long": round(self.burn_long, 9),
        }


class SloTracker:
    """Scores one SLO's observation stream; see the module docstring.

    Observations arrive in non-decreasing simulated time.  The tracker
    retains only the longest window's worth, so memory is bounded by the
    observation rate times the longest window.
    """

    def __init__(self, spec: SloSpec) -> None:
        self.spec = spec
        self._horizon_s = max(w.long_s for w in spec.windows)
        #: Observation times, oldest first, from ``_head`` on retained
        #: (the evicted prefix is dropped once it outgrows the rest).
        self._times: List[float] = []
        #: Lifetime error count before each observation of ``_times``, so
        #: a window's errors are ``n_errors`` minus the entry at its start.
        self._errors_before: List[int] = []
        self._head = 0
        self.n_observations = 0
        self.n_errors = 0
        self.alerts: List[SloAlert] = []
        self._latched: Dict[BurnWindow, bool] = {
            window: False for window in spec.windows
        }
        self._last_t: Optional[float] = None

    # ------------------------------------------------------------------
    def record(self, t_s: float, good: bool) -> List[SloAlert]:
        """Fold one observation in; returns alerts newly fired by it."""
        t_s = float(t_s)
        if math.isnan(t_s):
            raise ValueError("an observation needs a time, not NaN")
        if self._last_t is not None and t_s < self._last_t:
            raise ValueError(
                f"observations must be time-ordered "
                f"({t_s} after {self._last_t})"
            )
        self._last_t = t_s
        self.n_observations += 1
        self._times.append(t_s)
        self._errors_before.append(self.n_errors)
        if not good:
            self.n_errors += 1
        self._head = bisect_right(
            self._times, t_s - self._horizon_s, self._head
        )
        if self._head > len(self._times) // 2:
            del self._times[: self._head]
            del self._errors_before[: self._head]
            self._head = 0
        return self._evaluate(t_s)

    @property
    def _events(self) -> List[Tuple[float, bool]]:
        """The retained ``(t_s, is_error)`` pairs, oldest first."""
        totals = self._errors_before[self._head:] + [self.n_errors]
        return [
            (t, after > before)
            for t, before, after in zip(
                self._times[self._head:], totals, totals[1:]
            )
        ]

    def error_rate(self, window_s: float, now_s: float) -> float:
        """Error fraction of observations in ``(now - window, now]``.

        Observations are time-ordered, so the window is a suffix of the
        retained ones: its start is one bisection, its error count one
        subtraction of lifetime counts.
        """
        cutoff = now_s - window_s
        # No time compares at or below a NaN cutoff: the whole retention.
        start = (
            self._head
            if math.isnan(cutoff)
            else bisect_right(self._times, cutoff, self._head)
        )
        total = len(self._times) - start
        if total == 0:
            return 0.0
        return (self.n_errors - self._errors_before[start]) / total

    def burn_rate(self, window_s: float, now_s: float) -> float:
        """Error rate over the window as a multiple of the error budget."""
        return self.error_rate(window_s, now_s) / self.spec.budget

    # ------------------------------------------------------------------
    def _evaluate(self, now_s: float) -> List[SloAlert]:
        fired: List[SloAlert] = []
        for window in self.spec.windows:
            burn_short = self.burn_rate(window.short_s, now_s)
            burn_long = self.burn_rate(window.long_s, now_s)
            firing = (
                burn_short >= window.threshold
                and burn_long >= window.threshold
            )
            if firing and not self._latched[window]:
                fired.append(
                    SloAlert(
                        slo=self.spec.name,
                        t_s=now_s,
                        window=window,
                        burn_short=burn_short,
                        burn_long=burn_long,
                    )
                )
            self._latched[window] = firing
        self.alerts.extend(fired)
        return fired

    # ------------------------------------------------------------------
    @property
    def compliance(self) -> float:
        """Lifetime good fraction (1.0 before any observation)."""
        if self.n_observations == 0:
            return 1.0
        return 1.0 - self.n_errors / self.n_observations

    @property
    def ok(self) -> bool:
        """No alert ever fired and compliance meets the target."""
        return not self.alerts and self.compliance >= self.spec.target

    def verdict(self) -> dict:
        """The tracker's state as a JSON-ready verdict row."""
        return {
            "slo": self.spec.name,
            "description": self.spec.description,
            "target": self.spec.target,
            "observations": self.n_observations,
            "errors": self.n_errors,
            "compliance": round(self.compliance, 9),
            "alerts": [alert.to_dict() for alert in self.alerts],
            "ok": self.ok,
        }


class SloEngine:
    """A set of trackers sharing one observation entry point.

    Recording emits deterministic telemetry on the side: ``slo.<name>.*``
    counters in ``metrics`` (when given) and an ``slo.alert`` trace event
    per fired alert on the ambient tracer.
    """

    def __init__(self, specs: Sequence[SloSpec], metrics=None) -> None:
        names = [spec.name for spec in specs]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate SLO names in {names}")
        self.trackers: Dict[str, SloTracker] = {
            spec.name: SloTracker(spec) for spec in specs
        }
        self.metrics = metrics

    # ------------------------------------------------------------------
    def record(self, name: str, t_s: float, good: bool) -> List[SloAlert]:
        """Score one observation against the named SLO."""
        tracker = self.trackers.get(name)
        if tracker is None:
            raise KeyError(
                f"unknown SLO {name!r}; known: {sorted(self.trackers)}"
            )
        fired = tracker.record(t_s, good)
        if self.metrics is not None:
            self.metrics.counter(f"slo.{name}.observations").inc()
            if not good:
                self.metrics.counter(f"slo.{name}.errors").inc()
            if fired:
                self.metrics.counter(f"slo.{name}.alerts").inc(len(fired))
        tracer = get_tracer()
        if tracer.enabled and fired:
            for alert in fired:
                tracer.event(
                    "slo.alert",
                    t=alert.t_s,
                    category="slo",
                    slo=alert.slo,
                    short_s=alert.window.short_s,
                    long_s=alert.window.long_s,
                    burn_short=round(alert.burn_short, 9),
                    burn_long=round(alert.burn_long, 9),
                )
        return fired

    # ------------------------------------------------------------------
    @property
    def alerts(self) -> List[SloAlert]:
        """Every alert fired so far, in firing order."""
        out: List[SloAlert] = []
        for name in self.trackers:
            out.extend(self.trackers[name].alerts)
        out.sort(key=lambda a: (a.t_s, a.slo, a.window.short_s))
        return out

    @property
    def n_alerts(self) -> int:
        return sum(len(t.alerts) for t in self.trackers.values())

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.trackers.values())

    def verdicts(self) -> Dict[str, dict]:
        """Per-SLO verdict rows, keyed by SLO name (sorted)."""
        return {
            name: self.trackers[name].verdict()
            for name in sorted(self.trackers)
        }
