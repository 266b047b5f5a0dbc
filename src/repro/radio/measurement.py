"""Measurement model: complex channel gain -> (phase, RSS) tag report.

Mirrors what an ImpinJ R420 exposes per read: an RF phase in [0, 2*pi) with
12-bit quantisation plus thermal noise, and a peak RSS in dBm quantised to
0.5 dB steps.  The asymmetry between the two — phase moves ~0.39 rad per cm
of displacement while RSS moves ~0.1 dB — is what makes phase the superior
motion indicator in Fig 12/13.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.util.circular import TWO_PI
from repro.util.rng import SeedLike, make_rng

#: Transmit power plus antenna gains folded into one constant (dBm); chosen
#: so a tag at ~1.5 m reports ~-50 dBm, typical of the R420 testbed.
DEFAULT_TX_CONSTANT_DBM = 32.5


@dataclass(frozen=True)
class NoiseModel:
    """Receiver noise and quantisation applied to each read."""

    phase_noise_std_rad: float = 0.1
    phase_quantum_rad: float = TWO_PI / 4096.0  # 12-bit phase reports
    rss_noise_std_db: float = 0.4
    rss_quantum_db: float = 0.5
    tx_constant_dbm: float = DEFAULT_TX_CONSTANT_DBM

    def __post_init__(self) -> None:
        if self.phase_noise_std_rad < 0 or self.rss_noise_std_db < 0:
            raise ValueError("noise standard deviations must be non-negative")
        if self.phase_quantum_rad < 0 or self.rss_quantum_db < 0:
            raise ValueError("quantisation steps must be non-negative")


class TagObservation(NamedTuple):
    """One enriched tag read, as delivered by the reader to Tagwatch.

    A ``NamedTuple`` rather than a frozen dataclass: observations are
    constructed once per successful slot on the simulator's hottest path,
    and tuple construction is several times cheaper than a frozen
    dataclass ``__init__`` while keeping the same immutable, field-named
    API (use ``_replace`` instead of ``dataclasses.replace``).
    """

    epc: "object"  # repro.gen2.EPC; typed loosely to avoid an import cycle
    time_s: float
    phase_rad: float
    rss_dbm: float
    antenna_index: int
    channel_index: int

    def key(self) -> Tuple[int, int]:
        """(antenna, channel) key used to shard immobility models."""
        return (self.antenna_index, self.channel_index)



class ObservationBatch(Sequence):
    """One round's reports on one (antenna, channel), as columns.

    What :meth:`repro.world.scene.Scene.observe_batch` returns from its
    compiled pass: ``tag_index`` and ``time_s`` of each report, with its
    quantised ``phase_rad`` and ``rss_dbm`` (numpy arrays, never written
    after construction).  ``len()`` needs no records.  Iterating,
    indexing or comparing builds the :class:`TagObservation` tuples once,
    at C level, and keeps them, so a caller that only counts reports never
    pays for them.
    """

    __slots__ = (
        "tag_index",
        "time_s",
        "phase_rad",
        "rss_dbm",
        "antenna_index",
        "channel_index",
        "_epcs",
        "_records",
    )

    def __init__(
        self,
        epcs: List[object],
        tag_index: np.ndarray,
        time_s: np.ndarray,
        phase_rad: np.ndarray,
        rss_dbm: np.ndarray,
        antenna_index: int,
        channel_index: int,
    ) -> None:
        self._epcs = epcs
        self.tag_index = tag_index
        self.time_s = time_s
        self.phase_rad = phase_rad
        self.rss_dbm = rss_dbm
        self.antenna_index = antenna_index
        self.channel_index = channel_index
        self._records: Optional[List[TagObservation]] = None

    def __len__(self) -> int:
        return len(self.tag_index)

    def records(self) -> List[TagObservation]:
        """The reports as ``TagObservation`` tuples, in read order."""
        records = self._records
        if records is None:
            k = len(self.tag_index)
            # ``tuple.__new__`` skips the NamedTuple's Python-level
            # ``__new__``; the records are ordinary ``TagObservation``s.
            records = self._records = list(
                map(
                    tuple.__new__,
                    repeat(TagObservation, k),
                    zip(
                        map(self._epcs.__getitem__, self.tag_index.tolist()),
                        self.time_s.tolist(),
                        self.phase_rad.tolist(),
                        self.rss_dbm.tolist(),
                        repeat(self.antenna_index, k),
                        repeat(self.channel_index, k),
                    ),
                )
            )
        return records

    def __getitem__(self, index):
        return self.records()[index]

    def __iter__(self):
        return iter(self.records())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ObservationBatch):
            other = other.records()
        return self.records() == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ObservationBatch({self.records()!r})"

def _quantize(value: float, quantum: float) -> float:
    if quantum <= 0:
        return value
    return round(value / quantum) * quantum


def measurement_bases(
    gain: complex,
    tag_phase_offset_rad: float,
    lo_phase_offset_rad: float,
    noise: NoiseModel,
) -> Tuple[float, float]:
    """The deterministic halves of a measurement: (phase base, RSS base).

    Both are pure functions of the channel gain and the fixed offsets, so a
    caller observing a static geometry can compute them once and re-apply
    noise and quantisation per read via :func:`measure_from_bases`.
    """
    magnitude = abs(gain)
    if magnitude <= 0:
        raise ValueError("channel gain has zero magnitude; tag is unreachable")
    phase_base = np.angle(gain) + tag_phase_offset_rad + lo_phase_offset_rad
    rss_base = noise.tx_constant_dbm + 20.0 * np.log10(magnitude)
    return float(phase_base), float(rss_base)


def measure_from_bases(
    phase_base: float,
    rss_base: float,
    noise: NoiseModel,
    rng: SeedLike = None,
) -> Tuple[float, float]:
    """Apply per-read noise and quantisation to precomputed bases.

    Draws exactly one phase and one RSS noise sample, in that order, so the
    RNG stream matches :func:`measure` sample for sample.
    """
    gen = make_rng(rng)
    phase = phase_base + gen.normal(0.0, noise.phase_noise_std_rad)
    phase = float(np.mod(_quantize(phase, noise.phase_quantum_rad), TWO_PI))
    rss = rss_base + gen.normal(0.0, noise.rss_noise_std_db)
    rss = float(_quantize(rss, noise.rss_quantum_db))
    return phase, rss


def settle_report(
    phase_base: float,
    rss_base: float,
    z_phase: float,
    z_rss: float,
    noise: NoiseModel,
) -> Tuple[float, float]:
    """One read's (phase, RSS) report from its bases and two standard
    normal draws.

    ``std * z`` is exactly ``normal(0.0, std)`` for the same draw.
    Quantisation is ``round(x / q) * q``: half to even, and +0.0 where the
    quotient rounds to zero.  The wrap is ``fmod`` with a negative
    remainder moved one period up, which is ``np.mod(x, 2*pi)`` except that
    an exact negative multiple of 2*pi gives -0.0 where ``np.mod`` gives
    +0.0.  This is the scalar loop
    :meth:`repro.world.scene.Scene.observe_batch` runs without the
    compiled kernel, and the reference that kernel is probed against when
    it loads.
    """
    phase = phase_base + noise.phase_noise_std_rad * z_phase
    phase_q = noise.phase_quantum_rad
    if phase_q > 0:
        phase = round(phase / phase_q) * phase_q
    phase = math.fmod(phase, TWO_PI)
    if phase < 0.0:
        phase += TWO_PI
    rss = rss_base + noise.rss_noise_std_db * z_rss
    rss_q = noise.rss_quantum_db
    if rss_q > 0:
        rss = round(rss / rss_q) * rss_q
    return phase, rss


def measure(
    gain: complex,
    tag_phase_offset_rad: float,
    lo_phase_offset_rad: float,
    noise: NoiseModel,
    rng: SeedLike = None,
) -> Tuple[float, float]:
    """Produce a (phase_rad, rss_dbm) pair from a round-trip channel gain.

    ``tag_phase_offset_rad`` models the tag's modulation phase (theta_0 in
    Section 4.3); ``lo_phase_offset_rad`` models the reader's per-channel
    local-oscillator offset.
    """
    phase_base, rss_base = measurement_bases(
        gain, tag_phase_offset_rad, lo_phase_offset_rad, noise
    )
    return measure_from_bases(phase_base, rss_base, noise, rng)
