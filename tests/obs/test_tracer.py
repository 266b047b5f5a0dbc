"""Tracer: nesting, ambient installation, null path, determinism, overhead."""

import time

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    to_jsonl,
    use_tracer,
)


def fixed_wall():
    return 0.0


def test_nested_spans_record_parent_and_depth():
    tracer = Tracer(wall_clock=fixed_wall)
    outer = tracer.begin("cycle", t=0.0, category="core")
    inner = tracer.begin("phase1", t=0.0, category="core")
    tracer.end(inner, t=1.5)
    tracer.end(outer, t=2.0)
    assert inner.parent_id == outer.span_id
    assert inner.depth == 1 and outer.depth == 0
    assert inner.duration_s == 1.5
    assert outer.duration_s == 2.0
    # Completion order: children precede parents.
    assert tracer.records == [inner, outer]


def test_end_closes_dangling_children():
    tracer = Tracer(wall_clock=fixed_wall)
    outer = tracer.begin("outer", t=0.0)
    tracer.begin("leaked", t=0.5)
    tracer.end(outer, t=2.0)  # must not raise; closes "leaked" first
    assert [s.name for s in tracer.spans()] == ["leaked", "outer"]
    assert tracer.spans("leaked")[0].end_s == 2.0
    assert tracer.open_depth == 0


def test_span_context_manager_reads_clock():
    clock = iter([1.0, 3.0])
    tracer = Tracer(wall_clock=fixed_wall)
    with tracer.span("round", lambda: next(clock), category="gen2", n=4) as span:
        pass
    assert span.start_s == 1.0 and span.end_s == 3.0
    assert span.args == {"n": 4}


def test_event_anchors_to_enclosing_span_when_t_is_none():
    tracer = Tracer(wall_clock=fixed_wall)
    span = tracer.begin("schedule", t=7.25)
    event = tracer.event("setcover.iteration", iteration=0)
    tracer.end(span, t=7.25)
    assert event.t_s == 7.25
    assert event.parent_id == span.span_id
    orphan = tracer.event("loose")
    assert orphan.t_s == 0.0 and orphan.parent_id == 0


def test_end_args_merge_into_span():
    tracer = Tracer(wall_clock=fixed_wall)
    span = tracer.begin("round", t=0.0, round_index=3)
    tracer.end(span, t=1.0, n_reads=17)
    assert span.args == {"round_index": 3, "n_reads": 17}


def test_null_tracer_records_nothing():
    tracer = NullTracer()
    assert tracer.enabled is False
    span = tracer.begin("x", t=0.0)
    tracer.end(span, t=1.0)
    tracer.event("y", t=0.5)
    with tracer.span("z", lambda: 0.0):
        pass
    assert tracer.records == []


def test_ambient_tracer_defaults_to_null_and_scopes():
    assert get_tracer() is NULL_TRACER
    tracer = Tracer()
    with use_tracer(tracer):
        assert get_tracer() is tracer
        with use_tracer(None):  # None = explicitly disable inside the scope
            assert get_tracer() is NULL_TRACER
        assert get_tracer() is tracer
    assert get_tracer() is NULL_TRACER


def test_set_tracer_returns_previous():
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        assert previous is NULL_TRACER
        assert get_tracer() is tracer
    finally:
        set_tracer(previous)


def _traced_workload(tracer):
    with use_tracer(tracer):
        cycle = tracer.begin("cycle", t=0.0, index=0)
        phase1 = tracer.begin("phase1", t=0.0)
        tracer.event("select", t=0.25, category="gen2", antenna=1)
        tracer.end(phase1, t=1.0, n_rounds=3)
        phase2 = tracer.begin("phase2", t=1.0)
        tracer.end(phase2, t=3.0)
        tracer.end(cycle, t=3.0)


def test_same_workload_exports_byte_identically():
    first, second = Tracer(), Tracer()
    _traced_workload(first)
    _traced_workload(second)
    assert to_jsonl(first) == to_jsonl(second)
    # Wall annotations differ between the runs but are excluded by default.
    spans = [r for r in first.records if isinstance(r, Span)]
    assert any(s.wall_duration_s >= 0.0 for s in spans)


def _time_fig02(repeats=3):
    from repro.experiments import fig02_irr

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fig02_irr.run(tag_counts=(1, 5, 10, 20), initial_qs=(4,), repeats=4)
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_tracer_overhead_is_small():
    """Acceptance: tracing off must cost < 2% wall on the fig02 workload.

    Timing comparisons on shared CI boxes are noisy, so the assertion
    allows generous headroom over the 2% budget while still catching a
    pathological regression (e.g. per-slot work no longer gated on
    ``tracer.enabled``).
    """
    baseline = _time_fig02()
    traced = Tracer()
    with use_tracer(traced):
        _time_fig02(repeats=1)
    disabled = _time_fig02()
    assert disabled <= baseline * 1.25 + 0.05


def _time_fig18(tracer):
    from repro.experiments import fig18_gain

    start = time.perf_counter()
    with use_tracer(tracer):
        fig18_gain.run(
            percents=(5.0, 20.0),
            populations=(40,),
            n_cycles=4,
            warmup_cycles=1,
            phase2_duration_s=1.0,
        )
    return time.perf_counter() - start


def test_flight_recorder_overhead_is_bounded():
    """The always-on flight recorder must stay cheap on full Tagwatch cycles.

    Five alternating pairs of an untraced and a recorded run; the bound
    has the same form as the disabled-tracer test above and must hold in
    at least three pairs.  The two runs of a pair share the host's load,
    whereas a best-of-five per side can pair a quiet untraced run with
    recorded runs that all fell in a later busy spell.  The measured
    ratios are in docs/observability.md.
    """
    from repro.obs.health import FlightRecorder

    pairs = [
        (
            _time_fig18(None),
            _time_fig18(FlightRecorder(capacity_cycles=8, detail="round")),
        )
        for _ in range(5)
    ]
    within = [flight <= untraced * 1.25 + 0.05 for untraced, flight in pairs]
    assert sum(within) >= 3, pairs
