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

import shutil
import subprocess
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan, FaultyReader
from repro.gen2 import _ckernel
from repro.gen2.aloha import FixedQ, IdealDFSA, QAdaptive
from repro.gen2.calendar import PAIRED_LANES_MIN_TAGS
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


def _plain(value):
    """``value`` with every ndarray made a list, so states compare with
    ``==``."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _stream_probe(engine):
    """The generator's whole state: equal only if both engines left the
    stream at the same position, with the same 32-bit buffer (PCG64's
    ``has_uint32`` and ``uinteger``; no ``random`` draw reads it)."""
    return _plain(engine.rng.bit_generator.state)


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
            sig.append(_stream_probe(engine))
            signatures[name] = sig
    finally:
        InventoryEngine.MAX_SLOTS_PER_ROUND = original_cap
    assert signatures["calendar"] == signatures["reference"]


_ROUND_SPACE = dict(
    q=st.integers(min_value=0, max_value=7),
    n_tags=st.sampled_from([0, 1, 3, 17, 30, 60]),
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
    original_cap = InventoryEngine.MAX_SLOTS_PER_ROUND
    # The cap of ``_assert_matches_reference``: FixedQ(1) over 23 tags
    # collides until the cap, which at its default takes the reference
    # walk tens of seconds.
    InventoryEngine.MAX_SLOTS_PER_ROUND = 1500
    try:
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
    finally:
        InventoryEngine.MAX_SLOTS_PER_ROUND = original_cap
    assert merged["calendar"] == merged["reference"]


# ----------------------------------------------------------------------
# The kernel draws from any numpy bit generator
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "bit_generator",
    [np.random.MT19937, np.random.Philox, np.random.SFC64],
    ids=lambda cls: cls.__name__,
)
@pytest.mark.parametrize("kind,q,n_tags", [
    ("qadaptive", 4, 40),
    ("qadaptive", 0, 9),
    ("fixedq", 0, 1),  # length-1 frames draw nothing
    ("fixedq", 3, 13),
])
@pytest.mark.parametrize("with_replacement", [True, False])
@pytest.mark.parametrize("loss", [0.0, 0.2])
def test_kernel_matches_reference_on_other_bit_generators(
    monkeypatch, bit_generator, kind, q, n_tags, with_replacement, loss
):
    if _ckernel.load_kernel() is None:
        pytest.skip("C kernel unavailable")
    signatures = {}
    for name in ("reference", "calendar"):
        if name == "calendar":
            # Every round must settle in the kernel, not the slot walk.
            def no_fallback(*args, **kwargs):
                raise AssertionError("untraced round left the kernel")

            monkeypatch.setattr(
                InventoryEngine, "_run_round_reference", no_fallback
            )
        engine, logs = _run_rounds(
            name, kind, q, n_tags, np.random.Generator(bit_generator(5)),
            with_replacement, loss, deadline=None, rounds=3,
        )
        signatures[name] = [_log_signature(log) for log in logs]
        signatures[name].append(_stream_probe(engine))
    assert signatures["calendar"] == signatures["reference"]


# ----------------------------------------------------------------------
# Paired lanes: two frame lanes per PCG64 word above the gate
# ----------------------------------------------------------------------
def _paired_rounds(name, kind, n_tags, buffered, with_replacement, loss,
                   rounds=3):
    """Rounds on a PCG64 whose 32-bit buffer is set (by one
    ``integers(0, 2)`` draw) or clear on entry; returns the signatures and
    the buffer flag each kernel round was handed (``ipar[5]``)."""
    rng = np.random.default_rng(2017 + n_tags)
    if buffered:
        rng.integers(0, 2)
    factory = (
        (lambda: QAdaptive(initial_q=4))
        if kind == "qadaptive"
        else (lambda: FixedQ(9))
    )
    engine = InventoryEngine(
        R420_PROFILE, factory, rng=rng, with_replacement=with_replacement,
        read_loss_probability=loss, engine=name,
    )
    sig, flags = [], []
    for _ in range(rounds):
        entry = rng.bit_generator.state["has_uint32"]
        sig.append(_log_signature(engine.run_round(range(n_tags))))
        if name == "calendar":
            flags.append((entry, engine._cal.ipar[5]))
    sig.append(_stream_probe(engine))
    return sig, flags


@pytest.mark.parametrize("kind", ["qadaptive", "fixedq"])
@pytest.mark.parametrize("n_tags", [64, 65, 301])
@pytest.mark.parametrize("buffered", [False, True], ids=["clear", "set"])
@pytest.mark.parametrize("with_replacement", [True, False], ids=["S0", "S1"])
@pytest.mark.parametrize("loss", [0.0, 0.2])
def test_paired_lanes_match_reference(
    monkeypatch, kind, n_tags, buffered, with_replacement, loss
):
    """Above the gate a PCG64 round takes two lanes per 64-bit word; its
    reads, counters and the generator's whole state (the 32-bit buffer's
    flag and value included) equal the per-lane reference walk's, with
    the buffer set or clear on entry."""
    if _ckernel.load_kernel() is None:
        pytest.skip("C kernel unavailable")
    assert n_tags >= PAIRED_LANES_MIN_TAGS
    reference, _ = _paired_rounds(
        "reference", kind, n_tags, buffered, with_replacement, loss
    )

    def no_fallback(*args, **kwargs):
        raise AssertionError("untraced round left the kernel")

    monkeypatch.setattr(InventoryEngine, "_run_round_reference", no_fallback)
    calendar, flags = _paired_rounds(
        "calendar", kind, n_tags, buffered, with_replacement, loss
    )
    assert calendar == reference
    # Every round paired its lanes, from the flag it was entered with.
    assert [entry for entry, _ in flags] == [got for _, got in flags]
    assert flags[0] == (int(buffered), int(buffered))


def test_lanes_are_paired_only_above_the_gate_on_pcg64(monkeypatch):
    """Below the gate, on other bit generators and when the probe fails,
    rounds draw one ``next_uint32`` per lane (``ipar[5] == -1``) and still
    match the reference walk."""
    if _ckernel.load_kernel() is None:
        pytest.skip("C kernel unavailable")

    def mode(rng, n_tags):
        engine = InventoryEngine(
            R420_PROFILE, lambda: QAdaptive(initial_q=4), rng=rng
        )
        engine.run_round(range(n_tags))
        return engine._cal.ipar[5]

    gate = PAIRED_LANES_MIN_TAGS
    assert mode(np.random.default_rng(1), gate - 1) == -1
    assert mode(np.random.default_rng(1), gate) == 0
    assert mode(np.random.Generator(np.random.SFC64(1)), 300) == -1
    monkeypatch.setattr(_ckernel, "_PAIRED_LANES", False)
    assert mode(np.random.default_rng(1), 300) == -1
    signatures = {}
    for name in ENGINES:
        engine, logs = _run_rounds(
            name, "qadaptive", 4, 300, 3, True, 0.2, None, rounds=2
        )
        signatures[name] = [_log_signature(log) for log in logs]
        signatures[name].append(_stream_probe(engine))
    assert signatures["calendar"] == signatures["reference"]


def test_paired_lanes_probe_runs_at_first_paired_round(monkeypatch):
    """The probe of paired lanes runs once, at the first round that would
    pair its draws: not at load, not for a round below the gate."""
    if _ckernel.load_kernel() is None:
        pytest.skip("C kernel unavailable")
    from repro.gen2 import _kernel_probes

    calls = []
    real = _kernel_probes.paired_lanes_probe_passes

    def counting(lib):
        calls.append(lib)
        return real(lib)

    monkeypatch.setattr(_ckernel, "_PAIRED_LANES", None)
    monkeypatch.setattr(_kernel_probes, "paired_lanes_probe_passes", counting)
    engine = InventoryEngine(R420_PROFILE, lambda: QAdaptive(initial_q=4))
    engine.run_round(range(PAIRED_LANES_MIN_TAGS - 1))
    assert calls == []
    engine.run_round(range(PAIRED_LANES_MIN_TAGS))
    engine.run_round(range(PAIRED_LANES_MIN_TAGS))
    assert len(calls) == 1 and _ckernel._PAIRED_LANES is True


def test_paired_lanes_probe_passes():
    """The probe passes on this numpy: the fast path is on."""
    lib = _ckernel.load_kernel()
    if lib is None:
        pytest.skip("C kernel unavailable")
    from repro.gen2 import _kernel_probes

    assert _kernel_probes.paired_lanes_probe_passes(lib)


def test_reassigned_rng_is_drawn_from_next_round():
    """The kernel takes the generator from ``engine.rng`` every round."""

    def run(name):
        engine = InventoryEngine(
            R420_PROFILE, lambda: QAdaptive(initial_q=4), rng=1,
            read_loss_probability=0.2, engine=name,
        )
        logs = [engine.run_round(range(30))]
        engine.rng = np.random.default_rng(2)
        logs.append(engine.run_round(range(30)))
        engine.rng = np.random.Generator(np.random.MT19937(3))
        logs.append(engine.run_round(range(30)))
        return [_log_signature(log) for log in logs] + [_stream_probe(engine)]

    assert run("calendar") == run("reference")


def test_kernel_call_holds_the_bit_generator_lock():
    engine = InventoryEngine(
        R420_PROFILE, lambda: QAdaptive(initial_q=4), rng=1
    )
    engine.run_round(range(5))
    cal = engine._cal
    if cal.fn is None:
        pytest.skip("C kernel unavailable")
    kernel = cal.fn
    lock = engine.rng.bit_generator.lock
    held = []

    def try_lock():
        acquired = lock.acquire(blocking=False)
        if acquired:
            lock.release()
        held.append(not acquired)

    def spy(*args):
        # Another thread must find the lock taken while the kernel runs.
        other = threading.Thread(target=try_lock)
        other.start()
        other.join(timeout=10)
        return kernel(*args)

    cal.fn = spy
    engine.run_round(range(5))
    assert held == [True]


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

    On the calendar engine the untraced rounds go through the kernel and
    the frame-traced rounds through the slot walk; both draw from the one
    generator, which must end where the reference leaves it.
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
    logs.append(_stream_probe(engine))
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


def test_kernel_build_never_compiles_a_shared_source(monkeypatch, tmp_path):
    """Concurrent first builds share the cached ``.c`` path: one process
    may truncate it while another compiles.  Each build must compile its
    own copy of the source, or it can cache a kernel with no symbols."""
    import ctypes

    so_path = str(tmp_path / "kernel.so")
    real_run = subprocess.run

    def racing_run(argv, **kwargs):
        # Another process starts rewriting the shared source right now.
        open(tmp_path / "kernel.c", "w").close()
        return real_run(argv, **kwargs)

    monkeypatch.setattr(_ckernel.subprocess, "run", racing_run)
    if not _ckernel._compile(so_path):
        pytest.skip("no C compiler")
    assert hasattr(ctypes.CDLL(so_path), "repro_run_round")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "kernel.c", "kernel.so"
    ]


def test_kernel_source_compiles_without_warnings(tmp_path):
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    source = tmp_path / "kernel.c"
    source.write_text(_ckernel._C_SOURCE)
    includes = [f"-I{path}" for path in _ckernel.include_dirs()]
    result = subprocess.run(
        [cc, "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
         *includes, str(source)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def test_kernel_cache_key_tracks_numpy_version(monkeypatch):
    """The kernel is built against numpy's ``bitgen_t`` layout, so a numpy
    upgrade must not load a kernel cached for the old version."""
    key = _ckernel.kernel_source_hash()
    monkeypatch.setattr(_ckernel.np, "__version__", "0.0.0")
    assert _ckernel.kernel_source_hash() != key


def test_engine_rejects_unknown():
    for name in ("fast", "warp", None):
        with pytest.raises(ValueError):
            InventoryEngine(
                R420_PROFILE, lambda: QAdaptive(initial_q=4), engine=name
            )
