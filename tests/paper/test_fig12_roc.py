"""Fig 12 claim: ROC of the four motion detectors.

Paper: Phase-MoG reaches >=0.95 TPR at <=0.1 FPR; both phase detectors
beat both RSS detectors; MoG controls false positives better than naive
differencing.
"""

from repro.experiments.report import FIGURES


def test_fig12_roc():
    figure = FIGURES["fig12"]
    result = figure.run("paper")
    print()
    print(figure.format(result))

    curves = result.curves
    assert curves["Phase-MoG"].tpr_at_fpr(0.1) >= 0.95  # paper headline
    assert curves["Phase-MoG"].auc > curves["Rss-MoG"].auc
    assert curves["Phase-differencing"].auc > curves["Rss-differencing"].auc
    assert (
        curves["Phase-MoG"].tpr_at_fpr(0.1)
        >= curves["Phase-differencing"].tpr_at_fpr(0.1)
    )
