"""Probe tests of the compiled observation pass, ``repro_observe``.

The kernel must give, bit for bit (the sign of a zero included), what
:func:`repro.radio.measurement.settle_report` gives: ties at .5 of a
quantum round half to even, a quotient that rounds to zero gives +0.0,
negative phases wrap up a period, and exact multiples of 2*pi wrap to the
zero ``fmod`` leaves.  Each case feeds bases with zero draws at unit noise,
so the bases reach the quantiser unchanged; the even reads of a batch take
their bases from the table and the odd ones from the resolve pass.
"""

import ctypes
import math

import numpy as np
import pytest

from repro.gen2 import _ckernel
from repro.gen2.aloha import QAdaptive
from repro.gen2.epc import random_epc_population
from repro.gen2.inventory import ReadColumns
from repro.radio.constants import china_920_926
from repro.radio.measurement import NoiseModel, ObservationBatch, settle_report
from repro.reader.reader import SimReader
from repro.util.circular import TWO_PI
from repro.world.motion import LinearPath, Stationary
from repro.world.scene import Antenna, Scene, TagInstance

#: Half-unit quanta make every tie exact: x / 0.5 is x * 2.
EXACT = NoiseModel(
    phase_noise_std_rad=1.0,
    rss_noise_std_db=1.0,
    phase_quantum_rad=0.5,
    rss_quantum_db=0.5,
)


def raw_kernel():
    lib = _ckernel.load_kernel()
    if lib is None:
        pytest.skip("C kernel unavailable")
    _ckernel.load_observe_kernel()  # declares the argument types
    return lib.repro_observe


def settle(noise, phase_bases, rss_bases, z=None):
    """Kernel and reference reports for one batch, as float hex strings."""
    z = [0.0] * (2 * len(phase_bases)) if z is None else z
    got = _ckernel.settle_batch(raw_kernel(), noise, phase_bases, rss_bases, z)
    want = zip(*(
        settle_report(pb, rb, z[2 * i], z[2 * i + 1], noise)
        for i, (pb, rb) in enumerate(zip(phase_bases, rss_bases))
    ))
    return (
        [[v.hex() for v in column] for column in got],
        [[v.hex() for v in column] for column in want],
    )


def test_kernel_passes_its_load_probe():
    if _ckernel.load_kernel() is None:
        pytest.skip("C kernel unavailable")
    assert _ckernel.load_observe_kernel() is not None


def test_ties_round_half_to_even():
    ties = [k * 0.5 + 0.25 for k in range(-6, 6)]  # x / 0.5 = k + 0.5
    got, want = settle(EXACT, ties, ties)
    assert got == want
    # -2.75 -> -5.5 -> -6, ..., 0.25 -> 0.5 -> 0, 0.75 -> 1.5 -> 2.
    rss = [float.fromhex(v) for v in got[1]]
    assert rss == [0.5 * round(k + 0.5) for k in range(-6, 6)]


def test_zero_quotients_give_positive_zero():
    bases = [-0.0, 0.0, -0.1, 0.1, -0.25, 0.25, -1e-300]
    got, want = settle(EXACT, bases, bases)
    assert got == want
    for column in got:
        for value in map(float.fromhex, column):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_negative_phases_wrap_up_a_period():
    bases = [-0.3, -0.5, -3.0, -TWO_PI - 0.1, -3 * TWO_PI + 0.5]
    for noise in (EXACT, NoiseModel(), NoiseModel(phase_quantum_rad=0.0)):
        got, want = settle(noise, bases, bases)
        assert got == want
        assert all(0.0 <= float.fromhex(v) < TWO_PI for v in got[0])


def test_exact_multiples_of_two_pi():
    multiples = [m * TWO_PI for m in (-3, -2, -1, 1, 2, 3)]
    noise = NoiseModel(
        phase_noise_std_rad=1.0, rss_noise_std_db=1.0, phase_quantum_rad=0.0
    )
    got, want = settle(noise, multiples, multiples)
    assert got == want
    # fmod keeps the dividend's sign on a zero remainder.
    assert [math.copysign(1.0, float.fromhex(v)) for v in got[0]] == [
        -1.0, -1.0, -1.0, 1.0, 1.0, 1.0
    ]


def test_random_reports_at_default_noise():
    rng = np.random.default_rng(27)
    n = 2000
    got, want = settle(
        NoiseModel(),
        rng.uniform(-7.0, 20.0, n).tolist(),
        rng.uniform(-90.0, -20.0, n).tolist(),
        rng.standard_normal(2 * n).tolist(),
    )
    assert got == want


def test_tag_outside_the_table_is_left_to_the_caller():
    fn = raw_kernel()
    table = np.array([0.5, -50.0, np.nan, np.nan])
    arrays = [
        np.asarray(_ckernel.observe_dpar(NoiseModel()), dtype=np.float64),
        np.array([0, 2, -1, 1], dtype=np.int64),
        np.zeros(8),
        np.full(4, 9.0),
        np.full(4, 9.0),
        np.full(4, -7, dtype=np.int64),
        np.zeros(8),
    ]
    cols = (ctypes.c_void_p * 7)(*(a.ctypes.data for a in arrays))
    n_missing = fn(ctypes.addressof(cols), table.ctypes.data, 2, 4, 0)
    assert n_missing == 3
    assert arrays[5][:3].tolist() == [1, 2, 3]
    assert arrays[3].tolist()[1:] == [9.0, 9.0, 9.0]  # untouched
    assert arrays[3][0] == settle_report(0.5, -50.0, 0.0, 0.0, NoiseModel())[0]


def _scene(seed=3):
    epcs = random_epc_population(6, rng=seed)
    tags = [
        TagInstance(epc=epcs[i], trajectory=Stationary((0.4 * i, 1.0, 0.8)))
        for i in range(5)
    ] + [
        TagInstance(
            epc=epcs[5], trajectory=LinearPath((0.0, 1.5, 0.8), (0.3, 0.0, 0.0))
        )
    ]
    return Scene(
        [Antenna((0.0, 0.0, 1.5)), Antenna((3.0, 0.0, 1.5))],
        tags,
        channel_plan=china_920_926(hop_dwell_s=0.05),
        seed=seed,
    )


def _rounds(monkeypatch, compiled, n_rounds=60):
    if not compiled:
        monkeypatch.setattr(_ckernel, "load_observe_kernel", lambda: None)
    reader = SimReader(
        _scene(), strategy_factory=lambda: QAdaptive(initial_q=2), seed=4
    )
    results = [reader.inventory_round(i % 2) for i in range(n_rounds)]
    monkeypatch.undo()
    return results, reader.scene


def _hex_reports(results):
    return [
        [tuple(v.hex() if isinstance(v, float) else v for v in obs)
         for obs in result.observations]
        for result in results
    ]


def test_python_loop_matches_compiled_pass(monkeypatch):
    """Same reports and generator position from the fallback loop as from
    the kernel, over hopping rounds with a moving tag on two antennas."""
    if _ckernel.load_observe_kernel() is None:
        pytest.skip("C kernel unavailable")
    compiled, compiled_scene = _rounds(monkeypatch, compiled=True)
    loop, loop_scene = _rounds(monkeypatch, compiled=False)
    assert compiled_scene._scratch is not None and loop_scene._scratch is None
    assert _hex_reports(compiled) == _hex_reports(loop)
    assert (
        compiled_scene._measure_rng.random() == loop_scene._measure_rng.random()
    )
    assert len({r.channel_index for r in compiled}) > 1


def test_reports_are_built_on_first_access(monkeypatch):
    if _ckernel.load_observe_kernel() is None:
        pytest.skip("C kernel unavailable")
    results, _ = _rounds(monkeypatch, compiled=True, n_rounds=3)
    result = results[0]
    batch = result.reports
    assert type(batch) is ObservationBatch
    assert batch._records is None
    assert type(result.log.read_columns()) is ReadColumns
    assert len(batch) == len(result.log.read_columns()) > 0
    observations = result.observations
    assert observations is result.observations is batch.records()
    assert batch == observations and list(batch) == observations
    assert [obs.time_s for obs in observations] == [
        read.time_s for read in result.log.reads
    ]


def test_rounds_without_stationary_tags_settle_read_by_read():
    """Only stationary tags have cached bases, so a round that reads none
    settles read by read and never sets up the kernel; the reports still
    match per-read ``observe`` calls on a twin scene."""
    if _ckernel.load_observe_kernel() is None:
        pytest.skip("C kernel unavailable")

    def moving_scene():
        epcs = random_epc_population(2, rng=5)
        tags = [
            TagInstance(
                epc=epc,
                trajectory=LinearPath((0.3 * i, 1.5, 0.8), (0.3, 0.0, 0.0)),
            )
            for i, epc in enumerate(epcs)
        ]
        return Scene([Antenna((0.0, 0.0, 1.5))], tags, seed=5)

    scene, twin = moving_scene(), moving_scene()
    tag_index, time_s = [0, 1, 0], [0.1, 0.2, 0.3]
    reads = ReadColumns(
        np.array(tag_index), np.array(time_s), np.arange(3), 0
    )
    reports = scene.observe_batch(reads, 0, 0)
    assert scene._scratch is None
    assert reports == [
        twin.observe(i, 0, 0, t) for i, t in zip(tag_index, time_s)
    ]

    mixed = _scene()
    mixed.observe_batch(
        ReadColumns(np.array([5, 0]), np.array([0.1, 0.2]), np.arange(2), 0),
        0,
        0,
    )
    assert mixed._scratch is not None
