"""Self-learning Gaussian-mixture immobility model (Section 4).

Each tag (per antenna/channel shard) owns a bounded stack of Gaussian modes
over its RF phase.  A new reading that matches a *reliable* mode means the
tag is where it was — stationary; a reading matching nothing means the tag
(or the multipath geometry around it) moved.

The update rules are Eqn 11 verbatim, with three engineering guards that any
practical implementation needs and the paper implies:

- circular arithmetic everywhere (the "phase jumps" fix of Section 4.3);
- a floor on the mode standard deviation so a perfectly quiet tag cannot
  collapse a mode to zero width and start flagging its own quantisation
  noise;
- a *reliability* threshold on the mode weight: freshly pushed modes (weight
  0.0001) must accumulate evidence before a match against them counts as
  "stationary".  This is what produces the paper's Fig 14 learning curve
  (~70% accuracy after ~67 readings with alpha = 0.001: the weight of a new
  mode after k matches is 1 - (1-alpha)^k ~ k * alpha).

Two deliberate deviations from the paper's prose, both standard in the
mixture-of-Gaussians literature (KaewTraKulPong & Bowden's refinement of
Stauffer-Grimson):

- the mean/variance learning rate is ``max(alpha * eta, 1/n_matches)`` so a
  young mode converges like a running sample mean/std instead of crawling at
  ``alpha * eta`` (with alpha = 0.001 a mode would otherwise take tens of
  thousands of readings to tighten);
- a new mode starts at a moderate standard deviation (default 0.3 rad, ~3x
  the R420's phase noise) rather than the paper's "large delta, e.g. 2*pi".
  A 2*pi-wide Gaussian matches *every* subsequent phase, so a single mode
  would absorb a moving tag's sweeping phase and eventually vouch for it as
  stationary — destroying the true-positive rate the paper reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.util.circular import TWO_PI

#: Same constant ``pdf`` always used (``np.sqrt(2 * np.pi)``), hoisted.
_SQRT_TWO_PI = float(np.sqrt(2.0 * np.pi))

_PI = float(np.pi)


def _circular_distance_scalar(a: float, b: float) -> float:
    """Scalar :func:`circular_distance` without any ufunc dispatch.

    ``math.fmod(x, 2*pi)`` (plus a negative-remainder correction) is
    bit-identical to ``np.mod(x, 2*pi)`` for finite doubles, so this stays
    byte-for-byte equal to the ndarray helper on the values the mixture
    sees — it is verified against it in the test suite.
    """
    ra = math.fmod(a, TWO_PI)
    if ra < 0.0:
        ra += TWO_PI
    rb = math.fmod(b, TWO_PI)
    if rb < 0.0:
        rb += TWO_PI
    diff = abs(ra - rb)
    return diff if diff <= _PI else TWO_PI - diff


@dataclass(slots=True)
class GaussianMode:
    """One Gaussian over a circular (or linear) signal value.

    ``slots=True``: every field is read and rewritten once per reading in
    the assessment hot loop, and slot access is measurably cheaper than a
    ``__dict__`` lookup.
    """

    mean: float
    std: float
    weight: float
    n_matches: int = 1
    #: Consecutive-match bookkeeping (see GmmParams.reliable_run).
    current_run: int = 0
    best_run: int = 0

    def to_dict(self) -> dict:
        """JSON-friendly form; :meth:`from_dict` round-trips it exactly."""
        return {
            "mean": self.mean,
            "std": self.std,
            "weight": self.weight,
            "n_matches": self.n_matches,
            "current_run": self.current_run,
            "best_run": self.best_run,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "GaussianMode":
        return cls(
            mean=float(record["mean"]),
            std=float(record["std"]),
            weight=float(record["weight"]),
            n_matches=int(record["n_matches"]),
            # Older snapshots predate run bookkeeping in the wire format;
            # a restart then conservatively breaks the contiguous run.
            current_run=int(record.get("current_run", 0)),
            best_run=int(record["best_run"]),
        )

    @property
    def priority(self) -> float:
        """The paper's ordering key r_k = w_k / delta_k."""
        return self.weight / self.std if self.std > 0 else float("inf")

    def pdf(self, value: float, circular: bool = True) -> float:
        """Gaussian density eta(value; mean, std) — Eqn 9."""
        d = (
            _circular_distance_scalar(value, self.mean)
            if circular
            else abs(value - self.mean)
        )
        # np.exp (not math.exp): numpy's SIMD exp rounds differently on some
        # inputs, and the committed golden traces pin the numpy values.
        coeff = 1.0 / (self.std * _SQRT_TWO_PI)
        return float(coeff * np.exp(-(d**2) / (2.0 * self.std**2)))


@dataclass(frozen=True)
class GmmParams:
    """Hyper-parameters of the self-learning mixture (paper Section 6)."""

    max_modes: int = 8  # K
    learning_rate: float = 0.001  # alpha
    match_threshold: float = 3.0  # xi
    initial_std: float = 0.3  # see module docstring (paper says 2*pi)
    initial_weight: float = 1e-4  # "a small w, e.g. 0.0001"
    min_std: float = 0.02  # collapse guard (radians / dB)
    reliable_weight: float = 0.05  # evidence needed to vouch stationarity
    reliable_std: float = 0.60  # a vouching mode must also be this tight
    #: ... and must have been matched by this many *consecutive* readings at
    #: some point.  A genuinely stationary tag (or a persistent multipath
    #: state) matches the same mode for long runs; a periodically moving
    #: tag's phase sweeps several radians between consecutive reads, so its
    #: modes are hit in isolation and never build a run.
    reliable_run: int = 6
    max_update_step: float = 0.5  # clamp on rho (eta can exceed 1)

    @classmethod
    def for_phase(cls, **overrides) -> "GmmParams":
        """Defaults tuned for RF phase (radians, circular)."""
        return cls(**overrides)

    @classmethod
    def for_rss(cls, **overrides) -> "GmmParams":
        """Defaults tuned for RSS (dB, linear): wider modes, coarser floor."""
        defaults = dict(initial_std=1.5, min_std=0.25, reliable_std=2.0)
        defaults.update(overrides)
        return cls(**defaults)

    def __post_init__(self) -> None:
        if self.max_modes < 1:
            raise ValueError("need at least one mode")
        if self.reliable_std <= self.min_std:
            raise ValueError("reliable_std must exceed min_std")
        if not 0 < self.learning_rate < 1:
            raise ValueError("learning rate must be in (0, 1)")
        if self.match_threshold <= 0:
            raise ValueError("match threshold must be positive")
        if self.min_std <= 0 or self.initial_std < self.min_std:
            raise ValueError("invalid std bounds")


class GaussianMixtureStack:
    """The per-tag immobility model.

    ``circular=True`` treats values as angles in [0, 2*pi) (RF phase);
    ``circular=False`` treats them linearly (RSS baselines of Fig 12).
    """

    def __init__(
        self, params: GmmParams = GmmParams(), circular: bool = True
    ) -> None:
        self.params = params
        self.circular = circular
        self.modes: List[GaussianMode] = []
        self.n_updates = 0

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The stack's learning state (modes + counters), JSON-friendly."""
        return {
            "n_updates": self.n_updates,
            "modes": [mode.to_dict() for mode in self.modes],
        }

    @classmethod
    def from_state(
        cls, state: dict, params: GmmParams, circular: bool = True
    ) -> "GaussianMixtureStack":
        """Rebuild a stack from :meth:`state_dict` output."""
        stack = cls(params, circular=circular)
        stack.n_updates = int(state["n_updates"])
        stack.modes = [GaussianMode.from_dict(m) for m in state["modes"]]
        return stack

    # ------------------------------------------------------------------
    def _distance(self, a: float, b: float) -> float:
        if self.circular:
            return _circular_distance_scalar(a, b)
        return abs(a - b)

    def _shift_mean(self, mean: float, value: float, rho: float) -> float:
        if self.circular:
            # Scalar replay of circular_signed_difference + wrap_phase:
            # fmod with a negative-remainder fix is bit-identical to np.mod.
            delta = math.fmod(value - mean, TWO_PI)
            if delta < 0.0:
                delta += TWO_PI
            if delta > _PI:
                delta -= TWO_PI
            shifted = math.fmod(mean + rho * delta, TWO_PI)
            if shifted < 0.0:
                shifted += TWO_PI
            return shifted
        return mean + rho * (value - mean)

    def sorted_modes(self) -> List[GaussianMode]:
        """Modes ordered by descending priority r_k = w_k / delta_k."""
        return sorted(self.modes, key=lambda m: m.priority, reverse=True)

    # ------------------------------------------------------------------
    def update(self, value: float) -> bool:
        """Feed one reading; learn; return whether it looked stationary."""
        p = self.params
        self.n_updates += 1
        circular = self.circular
        threshold = p.match_threshold

        # Walk the modes in descending priority without materialising a
        # sorted list: repeated first-of-the-maxima selection reproduces
        # sorted(..., reverse=True) stable ordering exactly, and the scan
        # almost always matches the top-priority mode on the first probe.
        modes = self.modes
        k = len(modes)
        matched_mode: Optional[GaussianMode] = None
        if k:
            pris = [
                (m.weight / m.std if m.std > 0 else float("inf")) for m in modes
            ]
            for _ in range(k):
                best_i = 0
                best_p = pris[0]
                for i in range(1, k):
                    if pris[i] > best_p:
                        best_p = pris[i]
                        best_i = i
                mode = modes[best_i]
                d = (
                    _circular_distance_scalar(value, mode.mean)
                    if circular
                    else abs(value - mode.mean)
                )
                if d < threshold * mode.std:
                    matched_mode = mode
                    break
                pris[best_i] = -1.0  # consumed (real priorities are > 0)

        if matched_mode is None:
            # Case 2: no match => the tag is in motion; push a fresh mode.
            for mode in self.modes:
                mode.current_run = 0
            self._push_mode(value)
            return False

        # Case 1: matched => stationary (if the mode has earned trust).
        reliable_weight = p.reliable_weight
        std = matched_mode.std
        was_reliable = (
            matched_mode.weight >= reliable_weight
            and std <= p.reliable_std
            and matched_mode.best_run >= p.reliable_run
        )
        matched_mode.n_matches += 1
        # Adaptive learning rate: young modes converge like a running
        # sample mean/std, mature modes settle at alpha * eta (see module
        # docstring).  The density call is skipped whenever its upper bound
        # alpha / (std * sqrt(2*pi)) cannot beat the 1/n floor (or the floor
        # already saturates the step clamp): the max/min below then resolve
        # to the exact same rho without evaluating exp at all, which is the
        # common case for mature, tight modes.
        alpha = p.learning_rate
        inv_n = 1.0 / matched_mode.n_matches
        if inv_n >= p.max_update_step or alpha / (std * _SQRT_TWO_PI) <= inv_n:
            rho = inv_n
        else:
            rho = max(
                alpha * matched_mode.pdf(value, circular),
                inv_n,
            )
        rho = float(min(max(rho, 0.0), p.max_update_step))
        new_mean = self._shift_mean(matched_mode.mean, value, rho)
        deviation = (
            _circular_distance_scalar(value, new_mean)
            if circular
            else abs(value - new_mean)
        )
        new_var = (1.0 - rho) * std**2 + rho * deviation**2
        matched_mode.mean = new_mean
        matched_mode.std = float(max(math.sqrt(new_var), p.min_std))
        decay = 1.0 - alpha
        for mode in modes:
            if mode is matched_mode:
                mode.weight = decay * mode.weight + alpha
                run = mode.current_run + 1
                mode.current_run = run
                if run > mode.best_run:
                    mode.best_run = run
            else:
                mode.weight = decay * mode.weight
                mode.current_run = 0
        return was_reliable

    def _is_reliable(self, mode: GaussianMode) -> bool:
        """A mode may vouch for stationarity only when it is both
        well-evidenced (weight) and tight (std).

        The tightness requirement is what keeps a *periodically* moving tag
        (e.g. on a turntable) correctly classified: modes fed by a sweeping
        phase inflate their variance beyond any stationary cluster's and are
        denied trust, whereas genuine multipath modes stay near the noise
        floor.
        """
        p = self.params
        return (
            mode.weight >= p.reliable_weight
            and mode.std <= p.reliable_std
            and mode.best_run >= p.reliable_run
        )

    def classify(self, value: float) -> bool:
        """Non-mutating check: does ``value`` match a reliable mode?"""
        p = self.params
        for mode in self.sorted_modes():
            if not self._is_reliable(mode):
                continue
            if self._distance(value, mode.mean) < p.match_threshold * mode.std:
                return True
        return False

    def _push_mode(self, value: float) -> None:
        p = self.params
        mode = GaussianMode(
            mean=value,
            std=p.initial_std,
            weight=p.initial_weight,
            current_run=1,
            best_run=1,
        )
        if len(self.modes) >= p.max_modes:
            # Evict the least-priority mode (the stale immobility hypothesis).
            victim_index = min(
                range(len(self.modes)), key=lambda i: self.modes[i].priority
            )
            self.modes[victim_index] = mode
        else:
            self.modes.append(mode)

    # ------------------------------------------------------------------
    def reliable_modes(self) -> List[GaussianMode]:
        """Modes currently trusted to vouch for stationarity."""
        return [m for m in self.modes if self._is_reliable(m)]

    def __len__(self) -> int:
        return len(self.modes)
