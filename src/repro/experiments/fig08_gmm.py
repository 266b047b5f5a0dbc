"""Fig 8 / Section 4.1: phase of a stationary tag in a dynamic environment.

A stationary tag is read continuously while a person walks around.  The
paper's point: the collected phases do not follow one Gaussian but a small
*group* of Gaussians — one per multipath superposition state — which is why
Tagwatch models immobility with a mixture.

The driver collects the trace, fits the self-learning GMM stack, and reports
the learned modes plus a histogram of the raw phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.gmm import GaussianMixtureStack, GmmParams
from repro.experiments.harness import build_lab
from repro.util.circular import TWO_PI, circular_std
from repro.util.tables import format_table


@dataclass
class LearnedMode:
    mean_rad: float
    std_rad: float
    weight: float
    reliable: bool


@dataclass
class Fig08Result:
    phases: np.ndarray
    modes: List[LearnedMode]
    histogram: Tuple[np.ndarray, np.ndarray]
    single_gaussian_std: float  # what a single model would need to cover it

    @property
    def n_reliable_modes(self) -> int:
        return sum(1 for m in self.modes if m.reliable)


def run(
    duration_s: float = 60.0, seed: int = 5, n_bins: int = 60
) -> Fig08Result:
    """Monitor one stationary tag under ambient motion; fit the mixture."""
    setup = build_lab(
        n_tags=1,
        n_mobile=0,
        seed=seed,
        n_antennas=1,
        n_people=1,
        people_duration_s=duration_s + 5.0,
    )
    observations, _ = setup.reader.run_duration(duration_s)
    phases = np.array([obs.phase_rad for obs in observations])
    stack = GaussianMixtureStack(GmmParams.for_phase(), circular=True)
    for phase in phases:
        stack.update(float(phase))
    modes = [
        LearnedMode(
            mean_rad=m.mean,
            std_rad=m.std,
            weight=m.weight,
            reliable=stack._is_reliable(m),
        )
        for m in stack.sorted_modes()
    ]
    hist, edges = np.histogram(phases, bins=n_bins, range=(0.0, TWO_PI))
    return Fig08Result(
        phases=phases,
        modes=modes,
        histogram=(hist, edges),
        single_gaussian_std=circular_std(phases),
    )


def format_report(result: Fig08Result) -> str:
    """Render the paper-style table for this figure."""
    headers = ["mode", "mean (rad)", "std (rad)", "weight", "reliable"]
    rows = [
        [i, m.mean_rad, m.std_rad, m.weight, str(m.reliable)]
        for i, m in enumerate(result.modes)
    ]
    title = (
        "Fig 8 — stationary tag under ambient motion: "
        f"{result.n_reliable_modes} reliable mode(s) of {len(result.modes)}; "
        f"a single Gaussian would need std={result.single_gaussian_std:.2f} rad"
    )
    return format_table(headers, rows, precision=3, title=title)
