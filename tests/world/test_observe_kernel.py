"""Probe tests of the compiled observation pass, ``repro_observe``.

The kernel must give, bit for bit (the sign of a zero included), what
:func:`repro.radio.measurement.settle_report` gives: ties at .5 of a
quantum round half to even, a quotient that rounds to zero gives +0.0,
negative phases wrap up a period, and exact multiples of 2*pi wrap to
+0.0, as ``np.mod`` does.  Each case feeds bases with zero draws at unit
noise, so the bases reach the quantiser unchanged; the even reads of a
batch take their bases from the table and the odd ones from the resolve
pass.  The kernel's own bases (stationary and circular tags) must equal
``Scene._measurement_bases_for`` bit for bit.
"""

import ctypes
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.gen2 import _ckernel, _kernel_probes
from repro.gen2.aloha import QAdaptive
from repro.gen2.epc import random_epc_population
from repro.gen2.inventory import ReadColumns
from repro.radio.constants import ChannelPlan, china_920_926
from repro.radio.measurement import NoiseModel, ObservationBatch, settle_report
from repro.reader.reader import SimReader
from repro.util.circular import TWO_PI
from repro.world.motion import CircularPath, LinearPath, Stationary, TurntablePath
from repro.world.objects import AmbientObject
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
    got = _kernel_probes.settle_batch(raw_kernel(), noise, phase_bases, rss_bases, z)
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
    # fmod keeps the dividend's sign on a zero remainder; np.mod, the
    # wrap of ``Scene.observe``, gives +0.0 on both sides.
    assert got[0] == [float(np.mod(m, TWO_PI)).hex() for m in multiples]
    assert [math.copysign(1.0, float.fromhex(v)) for v in got[0]] == [1.0] * 6


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
        np.zeros(8),
        np.full(4, 9.0),
        np.full(4, 9.0),
        np.full(4, -7, dtype=np.int64),
        np.zeros(8),
        np.zeros(2, dtype=np.int8),  # both tags KIND_PYTHON
        np.zeros((2, _ckernel.TAG_ROW)),
    ]
    reads = _columns([0, 2, -1, 1], [0.0] * 4).packed
    port = np.zeros(5)
    cols = (ctypes.c_void_p * len(arrays))(*(a.ctypes.data for a in arrays))
    n_missing = fn(
        ctypes.addressof(cols), reads, table.ctypes.data, port.ctypes.data,
        2, 4, 0,
    )
    assert n_missing == 3
    assert arrays[4][:3].tolist() == [1, 2, 3]
    assert arrays[2].tolist()[1:] == [9.0, 9.0, 9.0]  # untouched
    assert arrays[2][0] == settle_report(0.5, -50.0, 0.0, 0.0, NoiseModel())[0]


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


def _circular_scene(seed=5):
    epcs = random_epc_population(3, rng=seed)
    trajectories = [
        CircularPath((0.5, 1.0, 0.8), 0.3, 0.4, phase0=0.5, start_time=0.15),
        TurntablePath((1.0, 1.5, 0.8), radius=0.25, period_s=2.0, phase0=2.0),
        CircularPath((0.0, 2.0, 0.0), 0.5, -0.6, z=1.1),
    ]
    tags = [
        TagInstance(epc=epc, trajectory=trajectory, phase_offset_rad=-1.0 * i)
        for i, (epc, trajectory) in enumerate(zip(epcs, trajectories))
    ]
    return Scene(
        [Antenna((0.0, 0.0, 1.5)), Antenna((2.0, 0.0, 1.5))],
        tags,
        channel_plan=china_920_926(hop_dwell_s=0.05),
        seed=seed,
    )


def _counted_kernel(monkeypatch):
    """Make scenes set up from here on call the kernel through a counter;
    each call appends its ``n_resolve`` (0 for the settling call)."""
    fn = _ckernel.load_observe_kernel()
    if fn is None:
        pytest.skip("C kernel unavailable")
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return fn(*args)

    monkeypatch.setattr(_ckernel, "load_observe_kernel", lambda: counted)
    return calls


def _columns(tag_index, time_s):
    return ReadColumns(
        np.array(tag_index), np.array(time_s), np.arange(len(tag_index)), 0
    )


def _bits(observations):
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in obs)
        for obs in observations
    ]


def test_moving_only_round_takes_one_compiled_call(monkeypatch):
    """A round that reads only circular tags settles in one kernel call,
    with no bases resolved in Python, and still equals per-read
    ``observe`` calls on a twin scene, reports and generator position."""
    calls = _counted_kernel(monkeypatch)
    scene, twin = _circular_scene(), _circular_scene()
    rounds = [
        ([0, 1, 2], [0.1, 0.12, 0.14], 0, 0),
        ([2, 0], [0.5, 0.51], 1, 4),
        ([1, 2, 0], [3.0, 3.001, 3.002], 0, 15),
    ]
    for tag_index, time_s, antenna, channel in rounds:
        got = scene.observe_batch(_columns(tag_index, time_s), antenna, channel)
        assert type(got) is ObservationBatch
        want = [
            twin.observe(i, antenna, channel, t)
            for i, t in zip(tag_index, time_s)
        ]
        assert _bits(got) == _bits(want)
    assert calls == [0, 0, 0]
    assert scene._measure_rng.random() == twin._measure_rng.random()
    # Circular tags are never cached: their table rows stay NaN.
    assert np.isnan(scene._port_table(0, 0)[0]).all()


def test_kernel_fills_stationary_rows_of_the_table(monkeypatch):
    """A first-seen stationary tag's bases are computed in the kernel and
    written to the port's table, as the Python pass writes them; a tag on
    another trajectory (tag 5, a ``LinearPath``) is handed back."""
    calls = _counted_kernel(monkeypatch)
    scene, twin = _scene(), _scene()
    tag_index, time_s = [3, 5, 0], [0.1, 0.2, 0.3]
    got = scene.observe_batch(_columns(tag_index, time_s), 0, 2)
    assert calls == [0, 1]  # one read resolved in Python
    table = scene._port_table(0, 2)[0]
    for tag in (3, 0):
        want = twin._measurement_bases_for(tag, 0, 2, 0.0)
        assert [v.hex() for v in table[tag].tolist()] == [v.hex() for v in want]
    assert np.isnan(table[[1, 2, 4, 5]]).all()
    want = [twin.observe(i, 0, 2, t) for i, t in zip(tag_index, time_s)]
    assert _bits(got) == _bits(want)
    assert scene._measure_rng.random() == twin._measure_rng.random()


def test_kernel_bases_equal_python_bases():
    """``repro_probe_bases`` over a larger sample than the load probe:
    every (tag, antenna, channel) of the probe scene at 40 times."""
    lib = _ckernel.load_kernel()
    if lib is None or _ckernel.load_observe_kernel() is None:
        pytest.skip("C kernel unavailable")
    scene, _ = _kernel_probes.bases_probe_scene()
    scratch = _ckernel.ObserveScratch(None, *scene._tag_columns())
    scratch.bind(scene.noise)
    kinds = scratch.kind.tolist()
    assert kinds.count(_ckernel.KIND_STATIONARY) == 4
    assert kinds.count(_ckernel.KIND_CIRCULAR) == 3
    times = np.random.default_rng(6).uniform(0.0, 60.0, 40).tolist() + [0.0, 2.0]
    out = np.empty(2 * len(times))
    for tag in range(len(scene.tags)):
        reads = _columns([tag] * len(times), times).packed
        for antenna in range(len(scene.antennas)):
            for channel in range(len(scene.channel_plan)):
                lib.repro_probe_bases(
                    scratch.cols_ptr,
                    reads,
                    scene._port_table(antenna, channel)[3],
                    len(times),
                    out.ctypes.data,
                )
                want = [
                    v.hex()
                    for t in times
                    for v in scene._measurement_bases_for(tag, antenna, channel, t)
                ]
                assert [v.hex() for v in out.tolist()] == want


def test_zero_magnitude_is_handed_back_to_python():
    """A gain that underflows to zero is left to the Python pass, which
    raises its own error, with the kernel and without."""
    def build():
        epcs = random_epc_population(2, rng=8)
        tags = [
            TagInstance(epc=epcs[0], trajectory=Stationary((0.4, 1.0, 0.8))),
            TagInstance(
                epc=epcs[1],
                trajectory=CircularPath((0.5, 1.0, 0.8), 0.3, 0.4),
            ),
        ]
        return Scene(
            [Antenna((0.0, 0.0, 1.5))],
            tags,
            channel_plan=ChannelPlan("far", (1e200,), 0.1),
            seed=8,
        )

    for tag in (0, 1):
        reads = ReadColumns(
            np.array([tag]), np.array([0.1]), np.arange(1), 0
        )
        with pytest.raises(ValueError, match="zero magnitude"):
            build().observe_batch(reads, 0, 0)
        with pytest.raises(ValueError, match="zero magnitude"):
            build().observe(tag, 0, 0, 0.1)


def test_scenes_with_scatterers_leave_every_tag_to_python():
    scene = Scene(
        [Antenna((0.0, 0.0, 1.5))],
        [
            TagInstance(
                epc=random_epc_population(1, rng=9)[0],
                trajectory=Stationary((0.4, 1.0, 0.8)),
            )
        ],
        [AmbientObject(Stationary((1.0, 1.0, 1.0)), 0.3)],
        seed=9,
    )
    kinds, _ = scene._tag_columns()
    assert kinds.tolist() == [_ckernel.KIND_PYTHON]


def test_kernel_angle_and_log10_are_numpy_loops():
    """The kernel's arctan2 and log10 are numpy's float64 loops, which
    round apart from libm's ``atan2``/``log10`` on some inputs."""
    lib = _ckernel.load_kernel()
    if lib is None or _ckernel.load_observe_kernel() is None:
        pytest.skip("C kernel unavailable")
    rng = np.random.default_rng(7)
    y, x = (rng.uniform(-1.0, 1.0, (2, 20000)) * 1e-3).tolist()
    got = _kernel_probes.probe_loop(lib, _ckernel.NP_ARCTAN2, y, x)
    assert got == [float(np.angle(complex(b, a))) for a, b in zip(y, x)]
    assert got != [math.atan2(a, b) for a, b in zip(y, x)]
    magnitudes = (10.0 ** rng.uniform(-9.0, 0.0, 20000)).tolist()
    got = _kernel_probes.probe_loop(lib, _ckernel.NP_LOG10, magnitudes)
    assert got == [float(np.log10(m)) for m in magnitudes]
    assert got != [math.log10(m) for m in magnitudes]


#: Run in a fresh interpreter: what importing the benchmark's modules and
#: loading the shared object probe, and what the first round probes.
_SETUP_PROBE = """
import json
import sys
import repro.world.scene, repro.experiments.harness
from repro.gen2 import _ckernel
from repro.gen2.epc import random_epc_population
from repro.gen2.inventory import TagRead
from repro.world.motion import Stationary
from repro.world.scene import Antenna, Scene, TagInstance


def flags():
    return [
        _ckernel._LOAD_ATTEMPTED,
        _ckernel._GMM_ATTEMPTED,
        _ckernel._OBSERVE_ATTEMPTED,
        sorted(_ckernel._LOOPS_ATTEMPTED),
        "repro.gen2._kernel_probes" in sys.modules,
    ]


_ckernel.load_kernel()
setup = flags()
scene = Scene(
    [Antenna((0.0, 0.0, 1.5))],
    [TagInstance(epc=random_epc_population(1, rng=1)[0],
                 trajectory=Stationary((0.4, 1.0, 0.8)))],
)
scene.observe_batch([], 0, 0)
scene.observe(0, 0, 0, 0.0)
untouched = flags()
scene.observe_batch([TagRead(0, 0.1, 0, 0)], 0, 0)
print(json.dumps([setup, untouched, flags(), _ckernel._LOADED is not None]))
"""


def test_setup_binds_and_probes_nothing():
    """Importing the scene and the harness and loading the shared object
    bind no numpy loop, run no probe and do not even import the probes:
    the observation pass binds its loops and runs its probes at the first
    round that reads a tag, and the assessor's exp is never bound in a
    run without Tagwatch."""
    src = Path(__file__).resolve().parents[2] / "src"
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    ).stdout
    setup, untouched, first_round, loaded = json.loads(out)
    assert setup == [True, False, False, [], False]
    # Neither a round without reads nor a single ``observe`` probes.
    assert untouched == setup
    if loaded:
        assert first_round == [True, False, True, [1, 2], True]
    else:
        assert first_round == [True, False, True, [], False]
