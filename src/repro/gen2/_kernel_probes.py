"""Load-time probes of the compiled kernels in :mod:`repro.gen2._ckernel`.

A kernel is used only if it reproduces, bit for bit, what the Python it
replaces computes, on fixed samples: numpy's float64 loops against scalar
ufunc calls, the assessor's square against ``x**2``, the scene's settling
against :func:`~repro.radio.measurement.settle_report` and its bases
against ``Scene._measurement_bases_for``, and the calendar kernel's
paired frame lanes against per-lane ``Generator.integers``.  Comparisons
go through ``float.hex``, so the sign of a zero counts.  The loaders
import this module at their first call: importing the package compiles
none of it.
"""

from __future__ import annotations

import ctypes
import math
from typing import List, Tuple

import numpy as np

from repro.gen2._ckernel import TAG_ROW, ObserveScratch
from repro.util.circular import TWO_PI


def _hex(values) -> List[str]:
    return [float(v).hex() for v in values]


def probe_loop(lib, slot: int, *args) -> List[float]:
    """The kernel's bound numpy loop ``slot`` over the argument columns
    ``args`` (one, or two for arctan2's ``y, x``)."""
    lib.repro_probe_loop.restype = None
    lib.repro_probe_loop.argtypes = (
        [ctypes.c_int64] + [ctypes.c_void_p] * 3 + [ctypes.c_int64]
    )
    columns = [np.asarray(a, dtype=np.float64) for a in args]
    x, x2 = columns[0], columns[-1]
    y = np.empty_like(x)
    lib.repro_probe_loop(
        slot, x.ctypes.data, x2.ctypes.data, y.ctypes.data, len(x)
    )
    return y.tolist()


def square_probe_samples() -> List[float]:
    """The motion assessor's load-time probe of its square: ``x*x``
    differs from ``pow(x, 2.0)`` on fewer than one value in a thousand,
    hence the large sample."""
    rng = np.random.default_rng(2017)
    return rng.uniform(0.0, 7.0, 8192).tolist() + [0.0, 0.3, 2.0 * np.pi]


def loop_probe_samples() -> List[Tuple[List[float], ...]]:
    """Arguments of the load-time probe of numpy's loops, one tuple of
    argument columns per ``repro_bind_loop`` slot: exp arguments in [-5, 0],
    arctan2 ``(y, x)`` pairs shaped like round-trip gains (either sign,
    magnitudes 1e-7 to 1e-2, signed zeros) and log10 arguments (1e-9 to
    1).  Only ``uniform`` draws, shaped in Python: other numpy operations
    would page in code a run may never otherwise touch."""
    u = iter(np.random.default_rng(2018).uniform(0.0, 1.0, 6 * 512).tolist())

    def gain_part() -> float:
        return math.copysign(10.0 ** (-7.0 + 5.0 * next(u)), next(u) - 0.5)

    exponents = [-5.0 * next(u) for _ in range(512)] + [0.0, -0.5, -745.0]
    y = [gain_part() for _ in range(512)] + [0.0, -0.0, 0.0, -0.0, 1e-5, -1e-5]
    x = [gain_part() for _ in range(512)] + [1e-5, 1e-5, -1e-5, -1e-5, 0.0, 0.0]
    magnitudes = [10.0 ** (-9.0 * next(u)) for _ in range(512)] + [1.0]
    return [(exponents,), (y, x), (magnitudes,)]


def loop_probe_passes(lib, slot: int, ufunc, args) -> bool:
    """Whether the kernel's loop ``slot`` equals, in every bit, the scalar
    ``ufunc`` call on the argument columns ``args``."""
    want = [ufunc(*values) for values in zip(*args)]
    return _hex(probe_loop(lib, slot, *args)) == _hex(want)


def square_probe_passes(lib) -> bool:
    """Whether the assessor kernel's square equals Python's ``x**2`` on
    :func:`square_probe_samples`."""
    probe = lib.repro_probe_square
    probe.restype = None
    probe.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
    x = np.asarray(square_probe_samples(), dtype=np.float64)
    y = np.empty_like(x)
    probe(x.ctypes.data, y.ctypes.data, len(x))
    return _hex(y.tolist()) == _hex([v**2 for v in x.tolist()])


def _reads(tags, times) -> np.ndarray:
    """``ReadColumns.packed`` rows of the given tags at the given times."""
    from repro.gen2.inventory import ReadColumns

    return ReadColumns(tags, times, np.zeros(len(tags)), 0).packed


def settle_batch(
    fn, noise, phase_bases: List[float], rss_bases: List[float], z: List[float]
) -> Tuple[List[float], List[float]]:
    """Run ``repro_observe`` over one batch whose read ``i`` has bases
    ``(phase_bases[i], rss_bases[i])`` and draws ``z[2i], z[2i + 1]``.

    Even reads take their bases from the table and odd reads (tags of
    ``KIND_PYTHON``) from the resolve pass, so one batch exercises both
    of the kernel's settle paths.
    """
    n = len(phase_bases)
    scratch = ObserveScratch(
        fn, np.zeros(n, dtype=np.int8), np.zeros((n, TAG_ROW))
    )
    scratch.reserve(n)
    scratch.bind(noise)
    scratch.z[: 2 * n] = z
    reads = _reads(np.arange(n), np.zeros(n))
    table = np.empty((n, 2))
    table[:, 0] = phase_bases
    table[:, 1] = rss_bases
    scratch.bases[: 2 * n] = table.ravel()
    table[1::2, 0] = np.nan  # odd reads: "no cached bases"
    port = np.zeros(5)
    args = (
        scratch.cols_ptr, reads, table.ctypes.data, port.ctypes.data, n, n
    )
    n_missing = fn(*args, 0)
    if n_missing:
        fn(*args, n_missing)
    return scratch.phase[:n].tolist(), scratch.rss[:n].tolist()


#: One probe batch: noise model, phase bases, RSS bases, draws.
ProbeBatch = Tuple[object, List[float], List[float], List[float]]


def observe_probe_samples() -> List[ProbeBatch]:
    """The load-time probe of ``repro_observe``'s settling: ``(noise,
    phase bases, RSS bases, z)`` batches.

    With unit noise and zero draws the bases reach the quantiser as they
    are.  Half-unit quanta make exact ties at .5 of a quantum on both
    sides of zero; the crafted bases also hold quotients that round to a
    signed zero, negative phases that wrap up a period and, unquantised,
    exact multiples of 2*pi on both sides.  A random batch at the default
    noise model follows.
    """
    from repro.radio.measurement import NoiseModel

    ties = [k * 0.5 + 0.25 for k in range(-6, 6)]  # x / 0.5 = k + 0.5
    signed_zeros = [-0.0, 0.0, -0.1, 0.1, -1e-300]
    wraps = [-0.3, -3.0, -TWO_PI - 0.1, -3.0 * TWO_PI + 0.5]
    multiples = [m * TWO_PI for m in (-3, -2, -1, 1, 2, 3)]
    crafted = ties + signed_zeros + wraps + multiples
    no_draws = [0.0] * (2 * len(crafted))
    rng = np.random.default_rng(2017)
    n = 512
    return [
        (
            NoiseModel(
                phase_noise_std_rad=1.0,
                rss_noise_std_db=1.0,
                phase_quantum_rad=0.5,
                rss_quantum_db=0.5,
            ),
            crafted,
            crafted,
            no_draws,
        ),
        (
            NoiseModel(
                phase_noise_std_rad=1.0,
                rss_noise_std_db=1.0,
                phase_quantum_rad=0.0,
                rss_quantum_db=0.0,
            ),
            crafted,
            crafted,
            no_draws,
        ),
        (
            NoiseModel(),
            rng.uniform(-7.0, 20.0, n).tolist(),
            rng.uniform(-90.0, -20.0, n).tolist(),
            rng.standard_normal(2 * n).tolist(),
        ),
    ]


def settle_probe_passes(fn) -> bool:
    """Whether ``repro_observe`` settles every batch of
    :func:`observe_probe_samples` as
    :func:`~repro.radio.measurement.settle_report` does, in every bit."""
    from repro.radio.measurement import settle_report

    for noise, phase_bases, rss_bases, z in observe_probe_samples():
        got = settle_batch(fn, noise, phase_bases, rss_bases, z)
        want = zip(*(
            settle_report(pb, rb, z[2 * i], z[2 * i + 1], noise)
            for i, (pb, rb) in enumerate(zip(phase_bases, rss_bases))
        ))
        if [_hex(col) for col in got] != [_hex(col) for col in want]:
            return False
    return True


def bases_probe_scene():
    """The scene of the load-time probe of ``repro_observe``'s bases, and
    its sample of ``(tag, antenna, channel, t)`` reads.

    Stationary tags (one within half a wavelength of an antenna, where the
    path loss is clamped) and circular ones: a turntable, a train held at
    its start until t = 2 s at a height set by ``z``, an orbit run
    backwards at z = -0.0; phase offsets of both signs; three antennas;
    sixteen channels.
    """
    from repro.gen2.epc import random_epc_population
    from repro.radio.constants import china_920_926
    from repro.world.motion import CircularPath, Stationary, TurntablePath
    from repro.world.scene import Antenna, Scene, TagInstance

    u = iter(np.random.default_rng(2019).uniform(0.0, 1.0, 8 + 4 * 384).tolist())
    trajectories = [
        Stationary((0.4, 1.0, 0.8)),
        Stationary((-1.3, 2.2, 0.0)),
        Stationary((0.05, 0.02, 1.45)),
        Stationary((2.5, -0.7, 1.1)),
        TurntablePath((0.5, 1.0, 0.8), radius=0.25, period_s=2.5, phase0=1.0),
        CircularPath((1.0, 1.0, 0.0), 0.5, 0.3, phase0=-2.0, z=0.8, start_time=2.0),
        CircularPath((-0.5, 0.5, -0.0), 1.2, -0.7),
    ]
    epcs = random_epc_population(len(trajectories), rng=2019)
    offsets = [TWO_PI * (2.0 * next(u) - 1.0) for _ in trajectories]
    scene = Scene(
        [
            Antenna((0.0, 0.0, 1.5)),
            Antenna((3.0, 0.0, 1.5)),
            Antenna((-2.0, 3.0, 0.5)),
        ],
        [
            TagInstance(epc=epc, trajectory=trajectory, phase_offset_rad=offset)
            for epc, trajectory, offset in zip(epcs, trajectories, offsets)
        ],
        channel_plan=china_920_926(),
        seed=2019,
    )
    # Every tag on every antenna at t = 1 s (inside the train's hold),
    # then random reads.
    sample = [
        (tag, antenna, tag, 1.0)
        for tag in range(len(trajectories))
        for antenna in range(3)
    ] + [
        (
            int(next(u) * len(trajectories)),
            int(next(u) * 3),
            int(next(u) * 16),
            30.0 * next(u),
        )
        for _ in range(384)
    ]
    return scene, sample


def bases_probe_passes(lib) -> bool:
    """Whether ``repro_observe``'s bases (``repro_probe_bases``) equal,
    in every bit, ``Scene._measurement_bases_for`` on
    :func:`bases_probe_scene`.

    The kernel computes a distance as ``fma``s and a one-way gain from
    scalar ``cos``/``sin``, as the scene's Python does when
    :mod:`repro.radio.geometry` bound its ``fma`` and
    :mod:`repro.radio.channel` its scalar gain; without either, the
    Python takes numpy's path and the probe fails.
    """
    from repro.radio import channel, geometry

    if geometry._FMA is None or not channel._SCALAR_GAIN:
        return False  # pragma: no cover - platform-dependent rounding
    probe = lib.repro_probe_bases
    probe.restype = None
    probe.argtypes = [
        ctypes.c_void_p, ctypes.py_object, ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_void_p,
    ]
    scene, sample = bases_probe_scene()
    scratch = ObserveScratch(None, *scene._tag_columns())
    scratch.bind(scene.noise)
    out = np.empty(2)
    for tag, antenna, channel_index, t in sample:
        reads = _reads([tag], [t])
        port_ptr = scene._port_table(antenna, channel_index)[3]
        probe(scratch.cols_ptr, reads, port_ptr, 1, out.ctypes.data)
        want = scene._measurement_bases_for(tag, antenna, channel_index, t)
        if _hex(out.tolist()) != _hex(want):
            return False
    return True


def probe_lanes(lib, bit_generator, q: int, sizes) -> List[int]:
    """Frames of ``sizes`` lanes of ``q`` bits (``q >= 1``) drawn from a
    PCG64 ``bit_generator`` as the calendar kernel pairs them, from the
    32-bit buffer flag in its state."""
    probe = lib.repro_probe_lanes
    probe.restype = None
    probe.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 3 + [
        ctypes.c_void_p
    ] * 2
    sizes = np.asarray(sizes, dtype=np.int64)
    lanes = np.empty(int(sizes.sum()), dtype=np.int32)
    with bit_generator.lock:
        probe(
            bit_generator.ctypes.bit_generator,
            bit_generator.state["has_uint32"], q, len(sizes),
            sizes.ctypes.data, lanes.ctypes.data,
        )
    return lanes.tolist()


def paired_lanes_samples() -> List[Tuple[int, bool, List[int]]]:
    """``(q, entry buffer set, frame sizes)`` runs of the first-use probe
    of paired lanes: one frame of one, two or three lanes or of an even
    or odd size of a few hundred, and a run of frames of mixed parity,
    empty ones included (the buffer flag is carried from frame to
    frame)."""
    mixed = [5, 0, 1, 2, 3, 4, 64, 65, 2, 7]
    return [
        (q, buffered, sizes)
        for q in (1, 15)
        for buffered in (False, True)
        for sizes in ([1], [2], [3], [300], [301], mixed)
    ]


def paired_lanes_probe_passes(lib) -> bool:
    """Whether paired lanes (``repro_probe_lanes``) from a PCG64 equal, in
    every lane, per-lane ``Generator.integers(0, 2**q, size)`` calls on an
    identical PCG64, and leave its whole ``state`` dict (the 32-bit
    buffer's flag and value included) as those calls do, on
    :func:`paired_lanes_samples` with the buffer set or clear on entry."""
    pair = np.random.Generator(np.random.PCG64(2020))
    walk = np.random.Generator(np.random.PCG64())
    for q, buffered, sizes in paired_lanes_samples():
        if buffered != bool(pair.bit_generator.state["has_uint32"]):
            pair.integers(0, 2)
        walk.bit_generator.state = pair.bit_generator.state
        got = probe_lanes(lib, pair.bit_generator, q, sizes)
        want = [
            lane
            for size in sizes
            for lane in walk.integers(0, 1 << q, size=size).tolist()
        ]
        if got != want or pair.bit_generator.state != walk.bit_generator.state:
            return False
    return True
