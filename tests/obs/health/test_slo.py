"""SLO engine unit tests: window math, latching, telemetry, monotonicity."""

import math
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.health.slo import (
    DEFAULT_WINDOWS,
    BurnWindow,
    SloEngine,
    SloSpec,
    SloTracker,
)
from repro.obs.tracer import Tracer, use_tracer
from repro.util.metrics import MetricsRegistry

#: One tight window pair so tests can fire alerts in a handful of
#: observations: threshold 2x the budget over 10 s / 30 s windows.
FAST = (BurnWindow(short_s=10.0, long_s=30.0, threshold=2.0),)


def spec(target=0.9, windows=FAST, name="t"):
    return SloSpec(name=name, target=target, windows=windows)


class TestValidation:
    def test_window_ordering_enforced(self):
        with pytest.raises(ValueError):
            BurnWindow(short_s=30.0, long_s=10.0, threshold=1.0)
        with pytest.raises(ValueError):
            BurnWindow(short_s=0.0, long_s=10.0, threshold=1.0)
        with pytest.raises(ValueError):
            BurnWindow(short_s=1.0, long_s=2.0, threshold=0.0)

    def test_spec_target_must_be_a_fraction(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                SloSpec(name="x", target=bad)
        with pytest.raises(ValueError):
            SloSpec(name="", target=0.9)
        with pytest.raises(ValueError):
            SloSpec(name="x", windows=())

    def test_engine_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            SloEngine([spec(name="a"), spec(name="a")])

    def test_engine_rejects_unknown_slo(self):
        engine = SloEngine([spec(name="a")])
        with pytest.raises(KeyError):
            engine.record("b", 0.0, good=True)

    def test_time_must_not_regress(self):
        tracker = SloTracker(spec())
        tracker.record(5.0, good=True)
        with pytest.raises(ValueError):
            tracker.record(4.0, good=True)


class TestWindowMath:
    def test_error_rate_is_windowed(self):
        tracker = SloTracker(spec())
        for t in range(10):
            tracker.record(float(t), good=t < 5)  # 5 good then 5 bad
        # Short window (10 s) holds all ten; last 4 s holds only errors.
        assert tracker.error_rate(10.0, 9.0) == pytest.approx(0.5)
        assert tracker.error_rate(4.0, 9.0) == pytest.approx(1.0)

    def test_empty_window_is_clean(self):
        tracker = SloTracker(spec())
        assert tracker.error_rate(10.0, 100.0) == 0.0
        tracker.record(0.0, good=False)
        # The observation has aged out of the window entirely.
        assert tracker.error_rate(10.0, 100.0) == 0.0

    def test_burn_rate_is_error_rate_over_budget(self):
        tracker = SloTracker(spec(target=0.9))  # budget 0.1
        tracker.record(0.0, good=False)
        assert tracker.burn_rate(10.0, 0.0) == pytest.approx(10.0)

    def test_events_pruned_past_longest_window(self):
        tracker = SloTracker(spec())
        for t in range(100):
            tracker.record(float(t), good=True)
        # Retention horizon is the longest window (30 s).
        assert len(tracker._events) <= 31

    def test_nan_time_is_rejected(self):
        tracker = SloTracker(spec())
        with pytest.raises(ValueError):
            tracker.record(math.nan, good=True)

    def test_compliance_is_lifetime(self):
        tracker = SloTracker(spec())
        assert tracker.compliance == 1.0
        tracker.record(0.0, good=True)
        tracker.record(1.0, good=False)
        assert tracker.compliance == pytest.approx(0.5)


class TestAlerting:
    def test_alert_needs_both_windows(self):
        # One bad observation among many old good ones: the short window
        # burns hot but the long window does not confirm.
        windows = (BurnWindow(short_s=2.0, long_s=30.0, threshold=2.0),)
        tracker = SloTracker(spec(target=0.5, windows=windows))
        for t in range(20):
            tracker.record(float(t), good=True)
        fired = tracker.record(20.0, good=False)
        assert fired == []

    def test_sustained_breach_fires_once(self):
        tracker = SloTracker(spec(target=0.9))
        alerts = []
        for t in range(20):
            alerts += tracker.record(float(t), good=False)
        assert len(alerts) == 1
        assert alerts[0].slo == "t"
        assert alerts[0].burn_short >= 2.0

    def test_latch_rearms_after_recovery(self):
        tracker = SloTracker(spec(target=0.9))
        for t in range(10):
            tracker.record(float(t), good=False)
        assert len(tracker.alerts) == 1
        # A full horizon of good observations clears both windows...
        for t in range(10, 50):
            tracker.record(float(t), good=True)
        assert not any(tracker._latched.values())
        # ...so the next sustained breach is a new alert.
        for t in range(50, 60):
            tracker.record(float(t), good=False)
        assert len(tracker.alerts) == 2

    def test_verdict_shape(self):
        tracker = SloTracker(spec())
        tracker.record(0.0, good=False)
        verdict = tracker.verdict()
        assert verdict["slo"] == "t"
        assert verdict["observations"] == 1
        assert verdict["errors"] == 1
        assert isinstance(verdict["alerts"], list)
        assert verdict["ok"] is False  # compliance 0 < target

    def test_default_windows_are_the_sre_pairs(self):
        assert DEFAULT_WINDOWS[0].short_s < DEFAULT_WINDOWS[0].long_s
        assert DEFAULT_WINDOWS[0].threshold > DEFAULT_WINDOWS[1].threshold


class TestEngineTelemetry:
    def test_counters_and_alert_events(self):
        metrics = MetricsRegistry()
        engine = SloEngine([spec(target=0.9)], metrics=metrics)
        tracer = Tracer()
        with use_tracer(tracer):
            for t in range(10):
                engine.record("t", float(t), good=False)
        export = metrics.to_dict()
        assert export["slo.t.observations"]["value"] == 10
        assert export["slo.t.errors"]["value"] == 10
        assert export["slo.t.alerts"]["value"] == 1
        alert_events = [
            r for r in tracer.records if getattr(r, "name", "") == "slo.alert"
        ]
        assert len(alert_events) == 1
        assert alert_events[0].category == "slo"
        assert alert_events[0].args["slo"] == "t"

    def test_alerts_property_sorted_and_counted(self):
        engine = SloEngine([spec(name="a", target=0.9),
                            spec(name="b", target=0.9)])
        for t in range(10):
            engine.record("b", float(t), good=False)
            engine.record("a", float(t), good=False)
        assert engine.n_alerts == 2
        assert [a.slo for a in engine.alerts] == ["a", "b"]
        assert engine.ok is False
        assert sorted(engine.verdicts()) == ["a", "b"]


@settings(max_examples=60, deadline=None)
@given(
    goods=st.lists(st.booleans(), min_size=1, max_size=60),
    flip=st.data(),
)
def test_burn_rates_monotone_in_errors(goods, flip):
    """Flipping any good observation to bad never lowers any burn rate.

    The monotonicity the module docstring promises: with timestamps fixed,
    a pointwise-worse run burns every window at least as fast at every
    instant, so the set of firing instants only grows.  The latched alert
    *count* is deliberately not monotone (two breaches can merge into one
    sustained breach), so the count assertion is implication-shaped: if
    the base run alerted at all, the worse run must have alerted too.
    """
    index = flip.draw(st.integers(0, len(goods) - 1))
    worse = list(goods)
    worse[index] = False

    def run(sequence):
        tracker = SloTracker(spec(target=0.9))
        burns = []
        for t, good in enumerate(sequence):
            tracker.record(float(t), good=good)
            burns.append(
                tuple(tracker.burn_rate(w, float(t)) for w in (10.0, 30.0))
            )
        return burns, len(tracker.alerts), tracker.compliance

    base_burns, base_alerts, base_compliance = run(goods)
    worse_burns, worse_alerts, worse_compliance = run(worse)
    for base_pair, worse_pair in zip(base_burns, worse_burns):
        for base, worsened in zip(base_pair, worse_pair):
            assert worsened >= base - 1e-12
    if base_alerts:
        assert worse_alerts >= 1
    assert worse_compliance <= base_compliance + 1e-12


def _walk_error_rate(events, window_s, now_s):
    """The error rate as a backward walk over the retained events."""
    cutoff = now_s - window_s
    total = errors = 0
    for t, is_error in reversed(events):
        if t <= cutoff:
            break
        total += 1
        errors += is_error
    if total == 0:
        return 0.0
    return errors / total


class _WalkingTracker(SloTracker):
    """The oracle: retained events in a deque, each window walked
    backwards from the newest observation."""

    def __init__(self, spec):
        super().__init__(spec)
        self.events = deque()

    def record(self, t_s, good):
        self.events.append((float(t_s), not good))
        cutoff = float(t_s) - self._horizon_s
        while self.events and self.events[0][0] <= cutoff:
            self.events.popleft()
        return super().record(t_s, good)

    def error_rate(self, window_s, now_s):
        return _walk_error_rate(self.events, window_s, now_s)


def test_bisected_error_rate_matches_backward_walk():
    """Cumulative error counts plus a bisection give the walk's counts,
    hence the same rates, alerts and verdicts, over seeded random streams
    (ties in time, bursts, gaps past the horizon) and windows."""
    rng = random.Random(20261020)
    for _ in range(150):
        short = rng.choice([1.0, 2.5, 10.0])
        windows = (
            BurnWindow(short, short * rng.choice([1, 3, 6]), 2.0),
            BurnWindow(short * 2, short * 8, 1.5),
        )
        target = rng.choice([0.5, 0.9, 0.99])
        tracker = SloTracker(spec(target=target, windows=windows))
        oracle = _WalkingTracker(spec(target=target, windows=windows))
        p_bad = rng.random()
        t = rng.uniform(-5.0, 5.0)
        for _ in range(rng.randint(1, 120)):
            t += rng.choice([0.0, 0.0, 0.25, 1.0, rng.uniform(0, 3), 40.0])
            good = rng.random() >= p_bad
            assert tracker.record(t, good) == oracle.record(t, good)
            assert tracker._events == list(oracle.events)
            for _ in range(3):
                window_s = rng.choice(
                    [short, windows[1].long_s, rng.uniform(0.0, 100.0)]
                )
                now_s = t + rng.choice([0.0, -rng.uniform(0, 20), 7.5])
                assert tracker.error_rate(window_s, now_s) == (
                    oracle.error_rate(window_s, now_s)
                )
            assert tracker.error_rate(math.nan, t) == oracle.error_rate(
                math.nan, t
            )
        assert tracker.alerts == oracle.alerts
        assert tracker.verdict() == oracle.verdict()
