"""Fig 3/4 claim: the TrackPoint warehouse trace statistics.

Paper: 367,536 reads of 527 tags over ~4 h; the stuck tag read ~90,000
times; 10% of tags read >655 times, 20% >205; conveyed tags read <5 times
per transit against a ~50-read target.
"""

from repro.experiments.report import FIGURES


def test_fig03_trace():
    figure = FIGURES["fig3"]
    result = figure.run("paper")
    print()
    print(figure.format(result))

    assert 250_000 < result.n_reads < 500_000
    assert 480 < result.n_tags < 560
    assert result.top_tag_reads == 90_000
    assert result.reads_at_top_10pct > 500
    assert result.reads_at_top_20pct > 150
    assert result.conveyed_mean_reads < 5
    assert result.conveyed_under_5_fraction > 0.75
