"""Model-vs-simulation claim: the closed-form gain analysis against the
full Tagwatch simulation (not a paper figure; a consistency check that the
paper's Eqn 5/6 cost model really does explain Fig 18).

The analytic side uses constants *fitted from this simulator* (as the paper
fitted theirs from the R420), so model and simulation share a baseline.
"""

import pytest

from repro.core.analysis import breakeven_percent, predicted_gain
from repro.core.cost import CostModel
from repro.experiments import fig02_irr, fig18_gain
from repro.util.tables import format_table


def run_comparison():
    # Fit (tau0, tau_bar) from the simulated reader, as Section 2.3 does.
    fit = fig02_irr.run(
        tag_counts=(1, 5, 10, 20, 40), initial_qs=(4,), repeats=10, seed=1
    ).fitted
    sim = fig18_gain.run(
        percents=(5.0, 10.0, 20.0),
        populations=(100,),
        methods=("naive",),
        n_cycles=6,
        warmup_cycles=2,
        phase2_duration_s=1.5,
        seed=29,
    )
    rows = []
    for percent in sim.percents:
        rows.append(
            [
                percent,
                predicted_gain(fit, 100, percent, 1.5),
                sim.median_gain(percent, "naive"),
            ]
        )
    return fit, rows


def test_analysis_matches_simulation():
    fit, rows = run_comparison()
    print()
    print(
        format_table(
            ["% mobile", "analytic gain", "simulated gain (naive)"],
            rows,
            title=(
                "Cost-model analysis vs simulation (n=100, Phase II 1.5 s); "
                f"fitted tau0={fit.tau0_s * 1e3:.1f} ms, "
                f"tau_bar={fit.tau_bar_s * 1e3:.2f} ms; "
                f"analytic break-even at "
                f"{breakeven_percent(fit, 100, 1.5):.1f}% mobile"
            ),
        )
    )
    for _, analytic, simulated in rows:
        # Closed form vs slot-level simulation: within ~35% once they share
        # fitted constants (residual: Q-adaptive overhead, detection noise).
        assert simulated == pytest.approx(analytic, rel=0.35)
    analytic_col = [r[1] for r in rows]
    simulated_col = [r[2] for r in rows]
    assert analytic_col == sorted(analytic_col, reverse=True)
    assert simulated_col == sorted(simulated_col, reverse=True)
