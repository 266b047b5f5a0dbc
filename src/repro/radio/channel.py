"""Complex baseband backscatter channel with multipath.

A monostatic RFID link is modelled as the *square* of the one-way channel
(the same paths are traversed reader->tag and tag->reader):

    g  = sum over paths of  a_i * exp(-j * 2*pi * d_i / lambda)
    h  = g ** 2

where the direct path has free-space amplitude ``lambda / (4*pi*d)`` and each
reflector contributes an attenuated longer path.  The measured RF phase is
``angle(h) + tag offset + per-(antenna, channel) LO offset``; RSS follows
``|h|``.  Movement of the tag sweeps the direct-path phase at
``4*pi*d / lambda`` (the paper's "natural amplifier": 1 cm of displacement is
2 cm of path change); movement of an ambient reflector toggles the
superposition between a small set of modes — exactly the Gaussian-mixture
structure Phase I exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.radio.constants import wavelength
from repro.radio.geometry import PointLike, as_point


@dataclass(frozen=True)
class Reflector:
    """A point scatterer: position plus a (one-way) reflection coefficient."""

    position: np.ndarray
    coefficient: float = 0.4

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", as_point(self.position))
        if not 0.0 <= self.coefficient <= 1.0:
            raise ValueError("reflection coefficient must be in [0, 1]")


def path_loss_amplitude(distance_m: float, wavelength_m: float) -> float:
    """Free-space one-way field amplitude ``lambda / (4 pi d)``.

    Clamped below half a wavelength of separation so that co-located points
    do not produce non-physical gains > 1.
    """
    d = max(distance_m, wavelength_m / 2.0)
    return wavelength_m / (4.0 * np.pi * d)


#: Channel-independent description of a monostatic link's geometry: the
#: direct-path length plus ``(coefficient, path_length)`` per reflector echo.
PathGeometry = Tuple[float, Tuple[Tuple[float, float], ...]]


def path_geometry(
    antenna: PointLike,
    tag: PointLike,
    reflectors: Sequence[Reflector] = (),
) -> PathGeometry:
    """Path lengths of an antenna->tag link, independent of frequency.

    The geometry only changes when something moves, while the frequency
    changes on every hop; splitting the two lets a static link amortise the
    distance computations across the whole channel plan.
    """
    a = as_point(antenna)
    t = as_point(tag)
    d_direct = float(np.linalg.norm(a - t))
    echoes = tuple(
        (
            reflector.coefficient,
            float(
                np.linalg.norm(a - reflector.position)
                + np.linalg.norm(reflector.position - t)
            ),
        )
        for reflector in reflectors
    )
    return d_direct, echoes


def _probe_scalar_gain() -> bool:
    """Machine-check the scalar libm form of the one-way gain.

    ``amp * exp(-2j*pi*d/lam)`` has zero real part in the exponent, so it
    reduces to ``amp*cos(y) + j*amp*sin(y)`` with ``y = (-(2*pi)*d)/lam``.
    libm's scalar ``cos``/``sin`` round identically to the numpy ufuncs on
    this platform, making the reduction bit-exact — but that is a platform
    property, so it is probed on a deterministic sample at import time and
    the scalar path is disabled wholesale on any mismatch.
    """
    rng = np.random.default_rng(54321)
    for d, freq in zip(
        rng.uniform(0.05, 20.0, 256).tolist(),
        rng.uniform(860e6, 960e6, 256).tolist(),
    ):
        lam = wavelength(freq)
        amp = path_loss_amplitude(d, lam)
        y = (-(2.0 * np.pi) * d) / lam
        ref = complex(amp * np.exp(-2j * np.pi * d / lam))
        if complex(amp * math.cos(y), amp * math.sin(y)) != ref:
            return False  # pragma: no cover - platform-dependent rounding
    return True


_SCALAR_GAIN = _probe_scalar_gain()


def one_way_gain_from_geometry(
    geometry: PathGeometry, freq_hz: float
) -> complex:
    """One-way gain from precomputed path lengths (same arithmetic as
    :func:`one_way_gain`, so results are bit-identical)."""
    lam = wavelength(freq_hz)
    d_direct, echoes = geometry
    if not echoes and _SCALAR_GAIN:
        # Echo-free links dominate the hot measurement path (every mobile
        # tag, every round); the scalar form skips complex-array dispatch.
        amp = path_loss_amplitude(d_direct, lam)
        y = (-(2.0 * np.pi) * d_direct) / lam
        return complex(amp * math.cos(y), amp * math.sin(y))
    g = path_loss_amplitude(d_direct, lam) * np.exp(
        -2j * np.pi * d_direct / lam
    )
    for coefficient, d_path in echoes:
        amp = coefficient * path_loss_amplitude(d_path, lam)
        g += amp * np.exp(-2j * np.pi * d_path / lam)
    return complex(g)


def backscatter_gain_from_geometry(
    geometry: PathGeometry, freq_hz: float
) -> complex:
    """Round-trip gain from precomputed path lengths (one-way squared)."""
    g = one_way_gain_from_geometry(geometry, freq_hz)
    return g * g


def one_way_gain(
    antenna: PointLike,
    tag: PointLike,
    freq_hz: float,
    reflectors: Sequence[Reflector] = (),
) -> complex:
    """Complex one-way channel gain antenna -> tag including reflections."""
    return one_way_gain_from_geometry(
        path_geometry(antenna, tag, reflectors), freq_hz
    )


def backscatter_gain(
    antenna: PointLike,
    tag: PointLike,
    freq_hz: float,
    reflectors: Sequence[Reflector] = (),
) -> complex:
    """Round-trip (monostatic) channel gain: the one-way gain squared."""
    g = one_way_gain(antenna, tag, freq_hz, reflectors)
    return g * g
