"""Motion scorers: the four detectors compared in the paper's Fig 12.

Each scorer consumes one reading at a time and emits a *motion score* —
larger means "more evidence the tag moved".  The ROC study thresholds these
scores post-hoc, which is equivalent to sweeping the paper's detection
threshold (xi for the MoG detectors, the difference threshold for the
differencing baselines) without re-running the experiment per threshold.

Scorers:

- ``DifferencingScorer``: |value - previous value| (circular for phase).
  The "naive method" of Section 4.1.
- ``MoGScorer``: distance to the nearest *reliable* Gaussian mode in units
  of that mode's standard deviation; infinite when no reliable mode exists
  yet.  Thresholding this at xi reproduces the paper's matching rule
  |theta - mu_k| < xi * delta_k.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.core.gmm import GaussianMixtureStack, GmmParams
from repro.util.circular import circular_distance

#: Score reported when a scorer has no basis yet (first reading, no modes).
UNSCORED = float("inf")


class MotionScorer(abc.ABC):
    """Streaming motion-evidence scorer for one tag (one signal shard)."""

    @abc.abstractmethod
    def score(self, value: float) -> float:
        """Consume a reading, return motion evidence (larger = moving)."""


class DifferencingScorer(MotionScorer):
    """Compare each reading with the previous one (Phase/RSS-differencing)."""

    def __init__(self, circular: bool = True) -> None:
        self.circular = circular
        self._previous: Optional[float] = None

    def score(self, value: float) -> float:
        """See :meth:`MotionScorer.score`."""
        if self._previous is None:
            self._previous = value
            return 0.0
        if self.circular:
            difference = float(circular_distance(value, self._previous))
        else:
            difference = abs(value - self._previous)
        self._previous = value
        return difference


class MoGScorer(MotionScorer):
    """Mixture-of-Gaussians scorer (Phase/RSS-MoG in Fig 12).

    The stack keeps learning with its own (fixed) matching threshold; the
    reported score is the normalised distance to the nearest reliable mode,
    so an external threshold of ``xi`` reproduces the paper's rule exactly.
    """

    def __init__(
        self, params: Optional[GmmParams] = None, circular: bool = True
    ) -> None:
        resolved = params or (
            GmmParams.for_phase() if circular else GmmParams.for_rss()
        )
        self.stack = GaussianMixtureStack(resolved, circular=circular)

    def score(self, value: float) -> float:
        """See :meth:`MotionScorer.score`."""
        reliable = self.stack.reliable_modes()
        if reliable:
            normalised = min(
                self.stack._distance(value, mode.mean) / mode.std
                for mode in reliable
            )
        else:
            normalised = UNSCORED
        self.stack.update(value)
        return normalised


class FusionScorer(MotionScorer):
    """Phase+RSS max-fusion (extension; measured to be a *negative* result).

    The intuition — RSS contributes when a tag is re-oriented without
    radial movement — does not survive contact with RSS's noise: taking the
    max imports RSS-MoG's false positives wholesale, and the fused ROC sits
    *below* Phase-MoG alone (see Fig 12 with ``include_fusion=True``).  The
    scorer is kept as the measured justification for the paper's choice to
    build motion assessment on phase only.
    """

    def __init__(self) -> None:
        self.phase = MoGScorer(circular=True)
        self.rss = MoGScorer(circular=False)

    def score(self, value) -> float:
        """``value`` is a (phase_rad, rss_dbm) pair."""
        phase_value, rss_value = value
        phase_score = self.phase.score(float(phase_value))
        rss_score = self.rss.score(float(rss_value))
        finite = [s for s in (phase_score, rss_score) if s != UNSCORED]
        if not finite:
            return UNSCORED
        # UNSCORED on one branch means that branch has no mature model yet;
        # trust the other rather than reporting infinite evidence.
        if len(finite) == 1:
            return finite[0]
        return max(finite)


def make_scorer(kind: str, signal: str = "phase") -> MotionScorer:
    """Factory: kind in {'differencing', 'mog', 'fusion'}; signal in
    {'phase', 'rss'} (ignored for 'fusion', which consumes both)."""
    lowered = kind.lower()
    if lowered == "fusion":
        return FusionScorer()
    circular = signal == "phase"
    if signal not in ("phase", "rss"):
        raise ValueError(f"unknown signal {signal!r}")
    if lowered == "differencing":
        return DifferencingScorer(circular=circular)
    if lowered == "mog":
        return MoGScorer(circular=circular)
    raise ValueError(f"unknown detector kind {kind!r}")
