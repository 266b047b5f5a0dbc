"""Fig 13 claim: detection sensitivity vs displacement.

Paper: phase detects ~80%/87%/99% of 1/2/3 cm displacements while RSS
manages 9%/18% at 1-2 cm, reaching ~76% only by 5 cm.
"""

from repro.experiments.report import FIGURES


def test_fig13_sensitivity():
    figure = FIGURES["fig13"]
    result = figure.run("paper")
    print()
    print(figure.format(result))

    phase = result.phase_detection_rate
    rss = result.rss_detection_rate
    assert phase[0] >= 0.6  # paper: 80% at 1 cm
    assert phase[2] >= 0.9  # paper: 99% at 3 cm
    assert rss[0] <= 0.3  # paper: 9% at 1 cm
    assert all(p >= r for p, r in zip(phase, rss))
    # Detection improves (weakly) with displacement.
    assert phase[-1] >= phase[0]
