"""Closed-form performance analysis of rate-adaptive reading.

The paper evaluates Tagwatch empirically; this module derives the expected
behaviour analytically from the same inventory-cost model (Definition 1),
so that the simulation and a back-of-envelope can be checked against each
other (see ``tests/paper/test_analysis.py``):

- read-all IRR: every tag is read once per ``C(n)``;
- naive rate-adaptive IRR: a Phase II sweep reads each of ``n'`` targets
  once per ``n' * C(1)``; a cycle spends ``C(n)`` on Phase I and ``T2`` on
  Phase II;
- Tagwatch IRR: like naive but with the sweep priced at the set cover's
  ``sum C(|S_i|)``; with random EPCs the expected grouping is modest, so
  the model exposes the sweep cost as a parameter with the naive value as
  its default upper bound.

These formulas reproduce Fig 18's shape: gains fall with the mobile
fraction and cross 1 when ``n' * C(1)`` approaches ``C(n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.cost import CostModel


@dataclass(frozen=True)
class CyclePrediction:
    """Predicted per-cycle quantities for one deployment point."""

    n_tags: int
    n_targets: int
    phase1_duration_s: float
    phase2_duration_s: float
    sweep_cost_s: float
    reads_per_target_per_cycle: float
    target_irr_hz: float
    read_all_irr_hz: float

    @property
    def gain(self) -> float:
        if self.read_all_irr_hz <= 0:
            raise ZeroDivisionError("read-all IRR is zero")
        return self.target_irr_hz / self.read_all_irr_hz

    @property
    def cycle_duration_s(self) -> float:
        return self.phase1_duration_s + self.phase2_duration_s


def predict_cycle(
    model: CostModel,
    n_tags: int,
    n_targets: int,
    phase2_duration_s: float,
    sweep_cost_s: Optional[float] = None,
    collateral_per_sweep: int = 0,
) -> CyclePrediction:
    """Predict one Tagwatch cycle's rates from the cost model alone.

    ``sweep_cost_s`` is the Phase II cost of covering all targets once;
    defaults to the naive upper bound ``n' * C(1)``.  ``collateral_per_sweep``
    adds the non-target tags the bitmasks sweep along (they dilute nothing
    in this model — each target is still read once per sweep — but they are
    accepted for future refinements and reporting).
    """
    if n_targets < 0 or n_tags < n_targets:
        raise ValueError("need 0 <= n_targets <= n_tags")
    if phase2_duration_s <= 0:
        raise ValueError("Phase II duration must be positive")
    phase1 = model.inventory_cost(n_tags)
    if sweep_cost_s is None:
        sweep_cost_s = n_targets * model.inventory_cost(1)
    if sweep_cost_s <= 0 and n_targets > 0:
        raise ValueError("sweep cost must be positive when targets exist")

    if n_targets == 0:
        sweeps = 0.0
    else:
        sweeps = phase2_duration_s / sweep_cost_s
    # One Phase I read plus one read per completed sweep.
    reads_per_cycle = 1.0 + sweeps
    cycle = phase1 + phase2_duration_s
    return CyclePrediction(
        n_tags=n_tags,
        n_targets=n_targets,
        phase1_duration_s=phase1,
        phase2_duration_s=phase2_duration_s,
        sweep_cost_s=float(sweep_cost_s),
        reads_per_target_per_cycle=reads_per_cycle,
        target_irr_hz=reads_per_cycle / cycle,
        read_all_irr_hz=model.irr(n_tags),
    )


def predicted_gain(
    model: CostModel,
    n_tags: int,
    percent_mobile: float,
    phase2_duration_s: float = 5.0,
    sweep_cost_s: Optional[float] = None,
) -> float:
    """Fig 18's y-axis, analytically."""
    if not 0 < percent_mobile <= 100:
        raise ValueError("percent must be in (0, 100]")
    n_targets = max(1, round(n_tags * percent_mobile / 100.0))
    return predict_cycle(
        model, n_tags, n_targets, phase2_duration_s, sweep_cost_s
    ).gain


def breakeven_percent(
    model: CostModel,
    n_tags: int,
    phase2_duration_s: float = 5.0,
    resolution: float = 0.5,
) -> float:
    """The mobile percentage at which naive rate-adaptive reading stops
    paying (gain crosses 1) — the paper's "switch back to the old fashion"
    threshold (Section 3, Scope)."""
    percent = resolution
    while percent <= 100.0:
        if predicted_gain(model, n_tags, percent, phase2_duration_s) <= 1.0:
            return percent
        percent += resolution
    return 100.0
