"""Fig 1 claim: tracking accuracy vs stationary company.

Paper: read-all degrades 1.8 -> 6 -> 10.6 cm as contention rises from
68 Hz to 21 Hz; Tagwatch restores 3.34 cm at the worst contention.  The
reproduction hits the same rate operating points with more companions
(see the driver docstring) and shows the same collapse + restoration.
"""

from repro.experiments.report import FIGURES


def test_fig01_tracking():
    figure = FIGURES["fig1"]
    result = figure.run("paper")
    print()
    print(figure.format(result))

    clean = result.case("read-all (1+0)")
    crowded = result.case("read-all (1+14)")
    adaptive = result.case("tagwatch (1+14)")
    # Shape assertions: degradation with contention, restoration by Tagwatch.
    assert clean.mean_error_cm < 3.0
    assert crowded.mean_error_cm > 3 * clean.mean_error_cm
    assert adaptive.mean_error_cm < crowded.mean_error_cm / 3
    assert adaptive.mobile_irr_hz > 1.5 * crowded.mobile_irr_hz
