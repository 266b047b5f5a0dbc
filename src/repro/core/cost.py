"""Inventory cost and reading-rate models (Section 2.2, Definition 1).

The paper models the time to identify ``n`` tags once as

    C(n) = tau_0 + n * e * tau_bar * ln(n)     for n > 1
    C(1) = tau_0 + tau_bar

and the individual reading rate (IRR) as ``Lambda(n) = 1 / C(n)``.  The two
constants are fitted from measured round durations with least squares, as in
Section 2.3 (the paper obtains tau_0 = 19 ms, tau_bar = 0.18 ms on an R420).

This model is the *price function* of the Phase II set-cover objective: the
greedy scheduler weighs each candidate bitmask by C(number of tags covered).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

E = float(np.e)


def _slot_factor(n: int) -> float:
    """The ``n e ln n`` slot count for n > 1, or 1 slot for n in {0, 1}."""
    if n <= 1:
        return 1.0
    return n * E * float(np.log(n))


@dataclass(frozen=True)
class CostModel:
    """The paper's C(n)/Lambda(n) with explicit (tau_0, tau_bar) constants."""

    tau0_s: float
    tau_bar_s: float

    def __post_init__(self) -> None:
        if self.tau0_s < 0 or self.tau_bar_s <= 0:
            raise ValueError("tau_0 must be >= 0 and tau_bar > 0")

    def inventory_cost(self, n: int) -> float:
        """C(n): seconds to identify ``n`` tags once (Definition 1)."""
        if n < 0:
            raise ValueError("tag count must be non-negative")
        return self.tau0_s + self.tau_bar_s * _slot_factor(n)

    def irr(self, n: int) -> float:
        """Lambda(n): individual reading rate (Hz) under continuous rounds."""
        return 1.0 / self.inventory_cost(n)

    def sweep_cost(self, covered_counts: Sequence[int]) -> float:
        """Total cost of one Phase II sweep: sum of C(|S_i|) over bitmasks."""
        return float(sum(self.inventory_cost(c) for c in covered_counts))

    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls, tag_counts: Sequence[int], durations_s: Sequence[float]
    ) -> "CostModel":
        """Least-squares fit of (tau_0, tau_bar) from measured rounds.

        Linear in the parameters: ``duration ~= tau_0 + tau_bar * slot_factor(n)``.
        Raises when the design matrix is degenerate (all counts equal).
        """
        counts = list(tag_counts)
        durations = list(durations_s)
        if len(counts) != len(durations):
            raise ValueError("tag_counts and durations differ in length")
        if len(counts) < 2:
            raise ValueError("need at least two measurements to fit")
        x = np.array([_slot_factor(n) for n in counts], dtype=float)
        if np.allclose(x, x[0]):
            raise ValueError("cannot fit: all measurements share one tag count")
        design = np.column_stack([np.ones_like(x), x])
        solution, *_ = np.linalg.lstsq(design, np.asarray(durations), rcond=None)
        tau0, tau_bar = float(solution[0]), float(solution[1])
        # A noisy fit can push tau_0 slightly negative; clamp to physical range.
        return cls(tau0_s=max(tau0, 0.0), tau_bar_s=max(tau_bar, 1e-6))


#: The paper's fitted constants for the ImpinJ R420 (Section 6).
PAPER_R420 = CostModel(tau0_s=19e-3, tau_bar_s=0.18e-3)


def irr_drop(model: CostModel, n_from: int, n_to: int) -> float:
    """Fractional IRR drop going from ``n_from`` to ``n_to`` tags.

    The paper's headline: an 84% drop from n=1 to n~40.
    """
    base = model.irr(n_from)
    return (base - model.irr(n_to)) / base
