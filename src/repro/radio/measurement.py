"""Measurement model: complex channel gain -> (phase, RSS) tag report.

Mirrors what an ImpinJ R420 exposes per read: an RF phase in [0, 2*pi) with
12-bit quantisation plus thermal noise, and a peak RSS in dBm quantised to
0.5 dB steps.  The asymmetry between the two — phase moves ~0.39 rad per cm
of displacement while RSS moves ~0.1 dB — is what makes phase the superior
motion indicator in Fig 12/13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

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
