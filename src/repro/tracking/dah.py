"""Differential phase tracking (the DAH estimator used for Fig 1).

Absolute position from a single-frequency phase snapshot is ambiguous: the
coherence surface repeats every ~lambda/2 of path difference, and the 6 MHz
regulatory band cannot separate lobes centimetres apart.  Tagoram's
Differential Augmented Hologram therefore tracks *relative* to a known
starting point:

1. **Calibrate** per-(antenna, channel) phase offsets while the tag rests at
   a known position (the paper: "we fix the initial position at a known
   point").
2. **Unwrap** each incoming read into an absolute antenna-tag distance: the
   phase fixes the distance modulo lambda/2; the integer wrap count is chosen
   by continuity with the *same antenna's previous* unwrapped distance.
   This per-antenna continuity is where reading rate enters: antennas are
   time-multiplexed, so a tag read at aggregate rate R sees each antenna at
   R/4.  Once the tag displaces more than lambda/4 (~8 cm) radially between
   two same-antenna reads — at 0.7 m/s that is any per-antenna gap beyond
   ~0.11 s, i.e. any aggregate rate under ~35 Hz — wrap counts slip and the
   fix degrades, which is precisely how channel contention became tracking
   error in Fig 1.
3. **Solve** a sliding-window least squares for position and velocity over
   the unwrapped distances (Gauss-Newton with a prior-damped step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.radio.constants import ChannelPlan
from repro.radio.geometry import PointLike, as_point
from repro.radio.measurement import TagObservation
from repro.util.circular import TWO_PI, circular_signed_difference


@dataclass(frozen=True)
class PositionEstimate:
    """One localisation fix."""

    time_s: float
    position: np.ndarray
    velocity: np.ndarray
    score: float
    n_reads: int


@dataclass(frozen=True)
class DahConfig:
    """Differential tracker parameters."""

    window_s: float = 0.3
    min_reads_per_fix: int = 4
    min_antennas_per_fix: int = 3
    max_speed_mps: float = 1.5
    #: Gauss-Newton damping toward the prior state (larger = stiffer).
    damping: float = 1e-3
    gauss_newton_iters: int = 6
    plane_z: float = 0.8
    #: Robust solve: samples whose residual exceeds this after the first
    #: pass are dropped (wrap slips show up as ~lambda/2 = 16 cm outliers).
    outlier_threshold_m: float = 0.05
    #: Aid per-antenna unwrapping with the estimated radial velocity.  Off
    #: by default: plain nearest-wrap continuity is what Tagoram-class
    #: trackers do, and its breakdown under low reading rate is the effect
    #: the paper measures.
    velocity_aided_unwrap: bool = False

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window must be positive")
        if self.min_reads_per_fix < 3:
            raise ValueError("need at least 3 reads per fix")


class DifferentialTracker:
    """DAH-style tracker for one tag."""

    def __init__(
        self,
        antenna_positions: Sequence[PointLike],
        channel_plan: ChannelPlan,
        config: DahConfig = DahConfig(),
    ) -> None:
        self.antennas = [as_point(p) for p in antenna_positions]
        self.channel_plan = channel_plan
        self.config = config
        self._offsets: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    def _predicted_phase(
        self, position: np.ndarray, antenna_index: int, channel_index: int
    ) -> float:
        d = float(np.linalg.norm(position - self.antennas[antenna_index]))
        lam = self.channel_plan.wavelength(channel_index)
        return float(np.mod(-4.0 * np.pi * d / lam, TWO_PI))

    def calibrate(
        self,
        observations: Sequence[TagObservation],
        known_position: PointLike,
    ) -> int:
        """Learn per-(antenna, channel) offsets at a known resting position."""
        known = as_point(known_position)
        buckets: Dict[Tuple[int, int], List[float]] = {}
        for obs in observations:
            predicted = self._predicted_phase(
                known, obs.antenna_index, obs.channel_index
            )
            buckets.setdefault(obs.key(), []).append(
                float(circular_signed_difference(obs.phase_rad, predicted))
            )
        if not buckets:
            raise ValueError("no observations supplied for calibration")
        for key, deltas in buckets.items():
            s, c = np.sin(deltas).sum(), np.cos(deltas).sum()
            self._offsets[key] = float(np.mod(np.arctan2(s, c), TWO_PI))
        return len(self._offsets)

    @property
    def is_calibrated(self) -> bool:
        return bool(self._offsets)

    # ------------------------------------------------------------------
    def _unwrap_distance(
        self, obs: TagObservation, predicted_distance: float
    ) -> Optional[float]:
        """Absolute antenna-tag distance implied by one read.

        The phase pins the distance modulo lambda/2; the wrap count is the
        one closest to ``predicted_distance``.  Returns None for
        uncalibrated shards.
        """
        key = obs.key()
        offset = self._offsets.get(key)
        if offset is None:
            return None
        lam = self.channel_plan.wavelength(obs.channel_index)
        half_lam = lam / 2.0
        # theta = -4 pi d / lambda + offset  (mod 2 pi)
        fractional = (
            -(obs.phase_rad - offset) * lam / (4.0 * np.pi)
        ) % half_lam
        k = round((predicted_distance - fractional) / half_lam)
        return fractional + k * half_lam

    def _solve_window(
        self,
        samples: Sequence[Tuple[float, int, float]],  # (dt, antenna, distance)
        prior_p: np.ndarray,
        prior_v: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gauss-Newton fit of (position, velocity) to unwrapped distances."""
        cfg = self.config
        state = np.array(
            [prior_p[0], prior_p[1], prior_v[0], prior_v[1]], dtype=float
        )
        z = cfg.plane_z
        for _ in range(cfg.gauss_newton_iters):
            rows = []
            residuals = []
            for dt, antenna_index, distance in samples:
                antenna = self.antennas[antenna_index]
                q = np.array(
                    [state[0] + state[2] * dt, state[1] + state[3] * dt, z]
                )
                diff = q - antenna
                norm = float(np.linalg.norm(diff))
                if norm < 1e-9:
                    continue
                u = diff[:2] / norm
                rows.append([u[0], u[1], u[0] * dt, u[1] * dt])
                residuals.append(distance - norm)
            if len(rows) < 3:
                break
            jac = np.asarray(rows)
            res = np.asarray(residuals)
            lhs = jac.T @ jac + cfg.damping * np.eye(4)
            rhs = jac.T @ res
            try:
                step = np.linalg.solve(lhs, rhs)
            except np.linalg.LinAlgError:  # pragma: no cover - damped
                break
            state += step
            if float(np.linalg.norm(step)) < 1e-6:
                break
        speed = float(np.hypot(state[2], state[3]))
        if speed > cfg.max_speed_mps:
            state[2:] *= cfg.max_speed_mps / speed
        position = np.array([state[0], state[1], z])
        velocity = np.array([state[2], state[3], 0.0])
        return position, velocity

    def _solve_robust(
        self,
        samples: Sequence[Tuple[float, int, float]],
        prior_p: np.ndarray,
        prior_v: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Two-pass solve: fit, drop wrap-slip outliers, refit.

        Returns (position, velocity, number of inliers used).
        """
        cfg = self.config
        p, v = self._solve_window(samples, prior_p, prior_v)
        inliers = []
        for dt, antenna_index, distance in samples:
            q = p + v * dt
            predicted = float(
                np.linalg.norm(q - self.antennas[antenna_index])
            )
            if abs(distance - predicted) <= cfg.outlier_threshold_m:
                inliers.append((dt, antenna_index, distance))
        if len(inliers) >= max(3, cfg.min_reads_per_fix - 1) and len(
            inliers
        ) < len(samples):
            p, v = self._solve_window(inliers, p, v)
            return p, v, len(inliers)
        return p, v, len(samples)

    # ------------------------------------------------------------------
    def track(
        self,
        observations: Sequence[TagObservation],
        initial_position: PointLike,
        initial_velocity: Optional[PointLike] = None,
    ) -> List[PositionEstimate]:
        """Recover the trajectory from an observation stream."""
        if not self.is_calibrated:
            raise ValueError("calibrate() must be called before track()")
        ordered = sorted(observations, key=lambda o: o.time_s)
        if not ordered:
            return []
        cfg = self.config
        p = as_point(initial_position)
        v = (
            as_point(initial_velocity)
            if initial_velocity is not None
            else np.zeros(3)
        )
        t_state = ordered[0].time_s
        window: List[Tuple[float, int, float]] = []  # (time, antenna, dist)
        estimates: List[PositionEstimate] = []
        # Per-antenna unwrapping state: (last time, last unwrapped distance).
        last_by_antenna: Dict[int, Tuple[float, float]] = {}
        for antenna_index, antenna in enumerate(self.antennas):
            d0 = float(np.linalg.norm(p - antenna))
            last_by_antenna[antenna_index] = (ordered[0].time_s, d0)

        for obs in ordered:
            last_t, last_d = last_by_antenna[obs.antenna_index]
            predicted_d = last_d
            if cfg.velocity_aided_unwrap:
                q = p + v * (obs.time_s - t_state)
                diff = q - self.antennas[obs.antenna_index]
                norm = float(np.linalg.norm(diff))
                if norm > 1e-9:
                    radial = float(np.dot(v, diff / norm))
                    shift = radial * (obs.time_s - last_t)
                    # Clamp the aid to a quarter wavelength: a bad velocity
                    # estimate may then still slip one wrap, but can never
                    # run the chain away by metres.
                    limit = self.channel_plan.wavelength(
                        obs.channel_index
                    ) / 4.0
                    predicted_d = last_d + float(
                        np.clip(shift, -limit, limit)
                    )
            distance = self._unwrap_distance(obs, predicted_d)
            if distance is None:
                continue
            last_by_antenna[obs.antenna_index] = (obs.time_s, distance)
            window.append((obs.time_s, obs.antenna_index, distance))
            window = [
                s for s in window if obs.time_s - s[0] <= cfg.window_s
            ]
            n_antennas = len({a for _, a, _ in window})
            if (
                len(window) >= cfg.min_reads_per_fix
                and n_antennas >= cfg.min_antennas_per_fix
            ):
                # Solve on every read (sliding window) so the motion state
                # stays at most one inter-read gap stale.
                mid = float(np.mean([s[0] for s in window]))
                samples = [(t - mid, a, d) for t, a, d in window]
                prior_p = p + v * (mid - t_state)
                p, v, n_used = self._solve_robust(samples, prior_p, v)
                fix_position = p.copy()
                # Advance the state to the latest read so the next window's
                # prior coasts forward only.
                p = p + v * (obs.time_s - mid)
                t_state = obs.time_s
                estimates.append(
                    PositionEstimate(
                        time_s=mid,
                        position=fix_position,
                        velocity=v.copy(),
                        score=float(n_used),
                        n_reads=len(window),
                    )
                )
                if n_used >= max(3, len(window) // 2):
                    self._heal_wraps(last_by_antenna, p, obs.time_s)
        return estimates

    def _heal_wraps(
        self,
        last_by_antenna: Dict[int, Tuple[float, float]],
        position: np.ndarray,
        now_s: float,
    ) -> None:
        """Re-anchor unwrap chains that slipped off the consensus fix.

        A wrap slip on one antenna is self-perpetuating (each unwrap is
        relative to the previous one), but as long as a majority of antennas
        agree, the solved position is sound — so any chain more than a
        quarter wavelength from the distance it implies is snapped back.
        """
        quarter = self.channel_plan.wavelength(0) / 4.0
        for antenna_index, (t_last, d_last) in last_by_antenna.items():
            predicted = float(
                np.linalg.norm(position - self.antennas[antenna_index])
            )
            if abs(d_last - predicted) > quarter:
                last_by_antenna[antenna_index] = (t_last, predicted)
