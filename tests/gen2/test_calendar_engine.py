"""Differential tests: calendar engine vs the reference slot walk.

The event-calendar engine's contract is *bit-for-bit equivalence* with the
sequential reference walk: same reads, same timing, same counters, same RNG
consumption, for every strategy, session mode, fault plan and deadline —
whether a round is settled by the compiled kernel or by the engine's
slot-walk fallback (custom strategies, frame-level tracing, no compiler).
These tests drive both engines over that space and compare everything
observable, both at the engine level (raw :class:`InventoryLog`) and at the
reader level (post-fault report streams under a :class:`FaultPlan`).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan, FaultyReader
from repro.gen2 import _ckernel
from repro.gen2.aloha import FixedQ, IdealDFSA, QAdaptive
from repro.gen2.epc import EPC
from repro.gen2.inventory import InventoryEngine, InventoryLog
from repro.gen2.timing import R420_PROFILE
from repro.obs.tracer import Tracer, use_tracer
from repro.world.motion import CircularPath, Stationary
from repro.world.scene import Antenna, Scene, TagInstance

ENGINES = ("calendar", "reference")


def _factory(kind, q):
    if kind == "qadaptive":
        return lambda: QAdaptive(initial_q=q)
    if kind == "fixedq":
        return lambda: FixedQ(q)
    return lambda: IdealDFSA()


class _CountingFactory:
    """Strategy factory that counts how often the engine calls it."""

    def __init__(self, factory):
        self.factory = factory
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.factory()


def _run_rounds(engine_name, kind, q, n_tags, seed, with_replacement,
                loss, deadline, rounds):
    engine = InventoryEngine(
        R420_PROFILE,
        _CountingFactory(_factory(kind, q)),
        rng=seed,
        with_replacement=with_replacement,
        read_loss_probability=loss,
        engine=engine_name,
    )
    logs = [
        engine.run_round(range(n_tags), max_duration_s=deadline)
        for _ in range(rounds)
    ]
    return engine, logs


def _log_signature(log):
    return (
        list(log.reads),
        log.n_empty,
        log.n_single,
        log.n_collision,
        log.n_duplicate,
        log.n_lost,
        log.n_rounds,
        log.n_adjusts,
        log.start_time_s,
        log.end_time_s,
        log.truncated,
    )


def _assert_matches_reference(kind, q, n_tags, seed, with_replacement,
                              loss, deadline):
    original_cap = InventoryEngine.MAX_SLOTS_PER_ROUND
    # A low cap makes the truncation path reachable (FixedQ(0) over many
    # tags collides forever) without hypothesis-hostile runtimes.
    InventoryEngine.MAX_SLOTS_PER_ROUND = 1500
    try:
        signatures = {}
        for name in ENGINES:
            engine, logs = _run_rounds(
                name, kind, q, n_tags, seed, with_replacement, loss,
                deadline, rounds=2,
            )
            sig = [_log_signature(log) for log in logs]
            # One fresh strategy per round, however the round is settled
            # (IdealDFSA always takes the calendar engine's fallback).
            assert engine.strategy_factory.calls == (2 if n_tags else 0)
            # The stream position must match too, but only where nothing is
            # pre-fetched: the calendar kernel and its replaying fallback
            # bulk-fill buffers from the generator, so for the stock
            # strategies the generator legitimately sits ahead — their
            # *consumed* stream is pinned by the log equality.  Custom
            # strategies draw straight from the generator on both engines.
            if kind == "dfsa":
                sig.append(tuple(engine.rng.random(size=4).tolist()))
            signatures[name] = sig
    finally:
        InventoryEngine.MAX_SLOTS_PER_ROUND = original_cap
    assert signatures["calendar"] == signatures["reference"]


_ROUND_SPACE = dict(
    q=st.integers(min_value=0, max_value=7),
    n_tags=st.sampled_from([0, 1, 3, 17, 60]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    with_replacement=st.booleans(),  # S0 vs S1 session models
    loss=st.sampled_from([0.0, 0.1, 0.5]),
    deadline=st.sampled_from([None, 0.02]),
)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["qadaptive", "fixedq"]), **_ROUND_SPACE)
def test_calendar_matches_reference(
    kind, q, n_tags, seed, with_replacement, loss, deadline
):
    """Stock strategies: rounds the compiled kernel settles when loaded."""
    _assert_matches_reference(
        kind, q, n_tags, seed, with_replacement, loss, deadline
    )


@settings(max_examples=30, deadline=None)
@given(**_ROUND_SPACE)
def test_custom_strategy_matches_reference(
    q, n_tags, seed, with_replacement, loss, deadline
):
    """A strategy the kernel does not know always takes the slot-walk
    fallback, which must draw from the generator exactly as the reference
    does (pinned by probing the stream after the rounds)."""
    _assert_matches_reference(
        "dfsa", q, n_tags, seed, with_replacement, loss, deadline
    )


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["qadaptive", "fixedq"]),
    q=st.integers(min_value=1, max_value=6),
    n_tags=st.sampled_from([1, 5, 23]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    with_replacement=st.booleans(),
    rounds=st.integers(min_value=1, max_value=4),
)
def test_merged_logs_are_engine_invariant(
    kind, q, n_tags, seed, with_replacement, rounds
):
    """Merging per-round logs commutes with the engine choice.

    The property the rest of the stack relies on: consumers that fold
    per-round logs into a running total (``run_duration``, the site
    simulation's per-reader totals) see one identical merged log whichever
    engine produced the rounds.
    """
    merged = {}
    for name in ENGINES:
        _, logs = _run_rounds(
            name, kind, q, n_tags, seed, with_replacement,
            loss=0.0, deadline=None, rounds=rounds,
        )
        total = InventoryLog(
            start_time_s=logs[0].start_time_s,
            end_time_s=logs[0].start_time_s,
        )
        for log in logs:
            total.merge(log)
        merged[name] = _log_signature(total)
    assert merged["calendar"] == merged["reference"]


# ----------------------------------------------------------------------
# Mixed runs: calendar rounds interleaved with frame-traced fallbacks
# ----------------------------------------------------------------------
def _span_records(tracer):
    return [
        (s.span_id, s.parent_id, s.depth, s.name, s.category,
         s.start_s, s.end_s, s.args)
        for s in tracer.spans()
    ]


def _mixed_run(engine_name, kind, q, n_tags, seed, with_replacement, loss,
               rounds=6):
    """Alternate untraced rounds with frame-detail traced ones.

    On the calendar engine the untraced rounds go through the kernel, which
    bulk-prefetches PCG64 words (and may park a spare lane), while the
    frame-traced rounds fall back to a Python walk that must keep draining
    that same buffered stream.
    """
    engine = InventoryEngine(
        R420_PROFILE,
        _factory(kind, q),
        rng=seed,
        with_replacement=with_replacement,
        read_loss_probability=loss,
        engine=engine_name,
    )
    logs, spans = [], []
    for i in range(rounds):
        if i % 2:
            tracer = Tracer()
            with use_tracer(tracer):
                log = engine.run_round(range(n_tags))
            spans.append(_span_records(tracer))
        else:
            log = engine.run_round(range(n_tags))
        logs.append(_log_signature(log))
    return logs, spans


@pytest.mark.parametrize("kind,q,n_tags", [
    ("qadaptive", 0, 5),
    ("qadaptive", 0, 13),
    ("fixedq", 0, 1),
    ("fixedq", 3, 13),
])
@pytest.mark.parametrize("with_replacement", [True, False])
@pytest.mark.parametrize("loss", [0.0, 0.2])
@pytest.mark.parametrize("seed", [0, 11])
def test_mixed_traced_and_untraced_rounds_match_reference(
    kind, q, n_tags, with_replacement, loss, seed
):
    calendar = _mixed_run(
        "calendar", kind, q, n_tags, seed, with_replacement, loss
    )
    reference = _mixed_run(
        "reference", kind, q, n_tags, seed, with_replacement, loss
    )
    assert calendar == reference
    frame_lengths = [
        rec[7]["frame_length"]
        for round_spans in reference[1]
        for rec in round_spans
        if rec[3] == "frame"
    ]
    assert frame_lengths
    if q == 0:
        # Length-1 frames draw no stream words; the fallback must not either.
        assert 1 in frame_lengths


# ----------------------------------------------------------------------
# Reader-level differential under fault plans
# ----------------------------------------------------------------------
FAULT_PLANS = {
    "none": FaultPlan.none(),
    "iid_loss": FaultPlan(report_loss=0.3),
    "burst": FaultPlan(burst_enter=0.2, burst_exit=0.5),
    "spikes_dupes": FaultPlan(
        phase_spike=0.2, phase_spike_std_rad=0.8, duplicate=0.2
    ),
    "delay_reorder": FaultPlan(delay=0.3, reorder=0.5),
}


def _scene(seed):
    tags = [
        TagInstance(EPC(i + 1, 96), Stationary((0.5 + 0.3 * i, 1.0, 0.0)))
        for i in range(6)
    ]
    tags.append(
        TagInstance(
            EPC(99, 96),
            CircularPath(center=(1.0, 1.0, 0.0), radius=0.4, speed=0.8),
        )
    )
    return Scene(
        antennas=[Antenna(position=(0.0, 0.0, 1.0), range_m=8.0)],
        tags=tags,
        seed=seed,
    )


def _reader_trace(engine_name, plan, seed):
    reader = FaultyReader(
        _scene(seed), plan, seed=seed, engine=engine_name
    )
    observations, log = reader.run_duration(0.4)
    return (
        [
            (o.epc.value, o.antenna_index, o.channel_index,
             o.time_s, o.phase_rad, o.rss_dbm)
            for o in observations
        ],
        _log_signature(log),
        reader.time_s,
    )


@pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS))
@pytest.mark.parametrize("seed", [0, 7])
def test_reader_reports_engine_invariant_under_faults(plan_name, seed):
    """The post-fault report stream is byte-identical across engines.

    Fault injection happens above the engine, so any engine divergence —
    a read at a different time, a different slot draw — would cascade into
    differently faulted reports; equality here pins the full pipeline.
    """
    plan = FAULT_PLANS[plan_name]
    traces = {
        name: _reader_trace(name, plan, seed) for name in ENGINES
    }
    assert traces["calendar"] == traces["reference"]


def test_env_var_selects_calendar(monkeypatch):
    """The engine defaults to calendar; ``REPRO_CALENDAR_CKERNEL=0`` is the
    one switch, and it only swaps the kernel for the slot-walk fallback."""
    engine = InventoryEngine(R420_PROFILE, lambda: QAdaptive(initial_q=4))
    assert engine.engine == "calendar"
    expected = InventoryEngine(
        R420_PROFILE, lambda: QAdaptive(initial_q=4), rng=3,
        engine="reference",
    ).run_round(range(40))
    monkeypatch.setenv("REPRO_CALENDAR_CKERNEL", "0")
    monkeypatch.setattr(_ckernel, "_LOAD_ATTEMPTED", False)
    monkeypatch.setattr(_ckernel, "_LOADED", None)
    engine = InventoryEngine(
        R420_PROFILE, lambda: QAdaptive(initial_q=4), rng=3
    )
    assert engine.engine == "calendar"
    log = engine.run_round(range(40))
    assert engine._cal.fn is None
    assert _log_signature(log) == _log_signature(expected)


def test_engine_rejects_unknown():
    for name in ("fast", "warp", None):
        with pytest.raises(ValueError):
            InventoryEngine(
                R420_PROFILE, lambda: QAdaptive(initial_q=4), engine=name
            )
