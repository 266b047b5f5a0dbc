"""Fig 2 / Section 2.3: empirical IRR vs tag count, against the model.

Measures the mean individual reading rate of a COTS (simulated) reader for
populations of 1..40 tags under several initial-Q settings, fits the
inventory-cost constants (tau_0, tau_bar) by least squares, and compares the
measured curve with the analytical Lambda(n) = 1 / (tau_0 + n e tau_bar ln n).

Paper findings to reproduce: the model tracks the measured trend, and IRR
drops ~84% between n=1 and n~40.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.cost import CostModel
from repro.experiments.harness import build_lab
from repro.experiments.parallel import parallel_map
from repro.gen2.aloha import QAdaptive
from repro.radio.constants import china_920_926
from repro.util.tables import format_table


@dataclass
class IrrCurve:
    """One measured IRR-vs-n curve for a given initial Q."""

    initial_q: int
    tag_counts: List[int]
    irr_hz: List[float]
    round_durations_s: List[float]


@dataclass
class Fig02Result:
    curves: List[IrrCurve]
    fitted: CostModel
    model_irr_hz: List[float]
    tag_counts: List[int]

    @property
    def drop_fraction(self) -> float:
        """Measured IRR drop from the smallest to the largest population."""
        best_curve = self.curves[0]
        return (best_curve.irr_hz[0] - best_curve.irr_hz[-1]) / best_curve.irr_hz[0]


def _measure_setting(
    q: int, n: int, seed: int, repeats: int, use_hopping: bool
) -> float:
    """Mean round duration of one (Q, n) setting (its own seeded lab)."""
    plan = china_920_926() if use_hopping else None
    setup = build_lab(
        n_tags=n,
        n_mobile=0,
        seed=seed,
        n_antennas=1,
        channel_plan=plan,
    )
    setup.reader.engine.strategy_factory = lambda q=q: QAdaptive(
        initial_q=q
    )
    round_times = []
    for _ in range(repeats):
        result = setup.reader.inventory_round(0)
        round_times.append(result.log.duration_s)
    return float(np.mean(round_times))


def run(
    tag_counts: Sequence[int] = (1, 2, 5, 10, 15, 20, 25, 30, 35, 40),
    initial_qs: Sequence[int] = (4, 2, 6),
    repeats: int = 20,
    seed: int = 1,
    use_hopping: bool = True,
    workers: Optional[int] = None,
) -> Fig02Result:
    """Measure IRR curves and fit the cost model.

    ``repeats`` rounds are averaged per (n, Q) setting; the paper used 50
    repetitions across 16 channels.  Every setting builds its own lab from
    ``seed + 1000 * Q + n``, so ``workers > 1`` fans the settings over a
    process pool without changing any number.
    """
    counts = sorted(tag_counts)
    tasks = [
        (q, n, seed + 1000 * q + n, repeats, use_hopping)
        for q in initial_qs
        for n in counts
    ]
    measured = parallel_map(_measure_setting, tasks, workers=workers)
    curves: List[IrrCurve] = []
    for i, q in enumerate(initial_qs):
        durations = measured[i * len(counts):(i + 1) * len(counts)]
        curves.append(
            IrrCurve(
                initial_q=q,
                tag_counts=list(counts),
                irr_hz=[1.0 / d for d in durations],
                round_durations_s=durations,
            )
        )

    # Fit (tau_0, tau_bar) on the spec-default curve (the first one).
    fitted = CostModel.fit(counts, curves[0].round_durations_s)
    model_irr = [fitted.irr(n) for n in counts]
    return Fig02Result(
        curves=curves,
        fitted=fitted,
        model_irr_hz=model_irr,
        tag_counts=list(counts),
    )


def format_report(result: Fig02Result) -> str:
    """Render the paper-style table for this figure."""
    headers = ["n"]
    headers += [f"IRR(Q0={c.initial_q}) Hz" for c in result.curves]
    headers += ["model Hz"]
    rows = []
    for i, n in enumerate(result.tag_counts):
        row = [n]
        row += [c.irr_hz[i] for c in result.curves]
        row += [result.model_irr_hz[i]]
        rows.append(row)
    fitted = result.fitted
    title = (
        "Fig 2 — IRR vs population size "
        f"(fitted tau0={fitted.tau0_s * 1e3:.1f} ms, "
        f"tau_bar={fitted.tau_bar_s * 1e3:.3f} ms; paper: 19 ms / 0.18 ms); "
        f"measured drop n={result.tag_counts[0]}->{result.tag_counts[-1]}: "
        f"{result.drop_fraction * 100:.0f}% (paper: 84%)"
    )
    return format_table(headers, rows, precision=1, title=title)
