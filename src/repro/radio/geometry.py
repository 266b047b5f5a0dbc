"""Geometric helpers: points and distances.

Points are float ``(3,)`` arrays (2-D input gets z = 0).  The scalar
squared-distance helper reproduces numpy's ``np.dot`` bit for bit, so the
channel model's hot paths can stay scalar without moving any output.
"""

from __future__ import annotations

import ctypes
from typing import Sequence, Union

import numpy as np

PointLike = Union[Sequence[float], np.ndarray]


def _bind_fma():
    """Bind libm's fused multiply-add, verified against ``np.dot``.

    numpy's 3-vector dot product contracts each multiply-add with FMA on
    this platform, so ``fma(z, z, fma(y, y, x*x))`` reproduces
    ``np.dot(d, d)`` bit for bit — which lets the hot geometry paths stay
    scalar (no array construction) without perturbing a single distance.
    The identity is machine-checked here on a deterministic sample; any
    mismatch (no-FMA hardware, a different BLAS) disables the fast path
    entirely rather than risking one flipped bit.
    """
    try:
        fma = ctypes.CDLL("libm.so.6").fma
    except (OSError, AttributeError):  # pragma: no cover - non-glibc libm
        return None
    fma.restype = ctypes.c_double
    fma.argtypes = [ctypes.c_double, ctypes.c_double, ctypes.c_double]
    probe = np.random.default_rng(12345).normal(scale=3.0, size=(256, 3))
    for row in probe:
        x, y, z = row.tolist()
        if fma(z, z, fma(y, y, x * x)) != float(np.dot(row, row)):
            return None  # pragma: no cover - platform without FMA dot
    return fma


_FMA = _bind_fma()


def squared_distance_xyz(dx: float, dy: float, dz: float) -> float:
    """``float(np.dot(d, d))`` for ``d = (dx, dy, dz)``, bit for bit.

    Scalar fast path for the per-round range checks and direct-path
    distances; falls back to the numpy dot product where the FMA identity
    could not be verified at import time.
    """
    if _FMA is not None:
        return _FMA(dz, dz, _FMA(dy, dy, dx * dx))
    d = np.array([dx, dy, dz])
    return float(np.dot(d, d))


def as_point(p: PointLike) -> np.ndarray:
    """Coerce a 2- or 3-sequence into a float ``(3,)`` array (z defaults 0)."""
    arr = np.asarray(p, dtype=float).reshape(-1)
    if arr.size == 2:
        arr = np.append(arr, 0.0)
    if arr.size != 3:
        raise ValueError(f"a point needs 2 or 3 coordinates, got {arr.size}")
    return arr


def distance(a: PointLike, b: PointLike) -> float:
    """Euclidean distance between two points."""
    return float(np.linalg.norm(as_point(a) - as_point(b)))
