"""Fig 8 claim: multi-modal phase of a stationary tag under ambient
motion.

Paper: the phase histogram of a stationary tag in a dynamic environment
forms a *group* of Gaussians (one per multipath superposition), not one.
"""

from repro.experiments.report import FIGURES


def test_fig08_gmm():
    figure = FIGURES["fig8"]
    result = figure.run("paper")
    print()
    print(figure.format(result))

    assert len(result.modes) >= 2  # multi-modal, as Fig 8 shows
    assert result.n_reliable_modes >= 1
    # Each learned mode is far tighter than one Gaussian over everything.
    top = result.modes[0]
    assert top.std_rad < result.single_gaussian_std
