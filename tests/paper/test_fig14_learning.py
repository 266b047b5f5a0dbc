"""Fig 14 claim: the immobility-model learning curve.

Paper: ~70% detection accuracy after ~1.49 s of trace (~67 readings) and
~90% after ~2.9 s (~130 readings) — one 5 s cycle stabilises a new mode.
"""

from repro.experiments.report import FIGURES


def test_fig14_learning():
    figure = FIGURES["fig14"]
    result = figure.run("paper")
    print()
    print(figure.format(result))

    assert result.reads_needed(0.7) <= 90  # paper: ~67 readings
    assert result.reads_needed(0.9) <= 150  # paper: ~130 readings
    assert result.accuracy[0] < 0.5  # cold start really is cold
    assert max(result.accuracy) >= 0.9
