"""Fig 17 claim: scheduling overhead CDF.

Paper: motion assessment + bitmask selection cost <4 ms in 50% of cycles
and <6 ms in 90% — negligible against 5 s cycles.
"""

from repro.experiments.report import FIGURES


def test_fig17_cost():
    figure = FIGURES["fig17"]
    result = figure.run("paper")
    print()
    print(figure.format(result))

    assert result.p50_ms < 10.0  # paper: <4 ms on their CPU
    assert result.p90_ms < 20.0  # paper: <6 ms
    # Negligible against the cycle length, the paper's actual claim.
    assert result.p90_ms / 1000.0 < 0.02 * result.cycle_duration_s
