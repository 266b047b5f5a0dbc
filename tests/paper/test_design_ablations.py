"""Design-choice ablations at full scale (channel keying, vote rule,
Phase II length).  These back the claims in DESIGN.md's decision list."""

from repro.experiments.report import FIGURES


def test_channel_keying():
    figure = FIGURES["channel-keying"]
    result = figure.run("paper")
    print()
    print(figure.format(result))
    assert result.fpr_keyed < 0.05
    assert result.fpr_merged > 2 * result.fpr_keyed


def test_vote_rule():
    figure = FIGURES["vote-rule"]
    result = figure.run("paper")
    print()
    print(figure.format(result))
    for _, targeting_rate, false_rate in result.rows:
        assert targeting_rate >= 0.8
        assert false_rate < 3.0


def test_phase2_sweep():
    figure = FIGURES["phase2-sweep"]
    result = figure.run("paper")
    print()
    print(figure.format(result))
    assert result.mobile_irr_hz[-1] >= result.mobile_irr_hz[0]
    assert result.detection_latency_s == sorted(result.detection_latency_s)


def _sgtin_comparison():
    """Greedy-vs-naive sweep costs on SGTIN-structured populations."""
    from collections import defaultdict

    from repro.core.bitmask import IndexedBitmaskTable
    from repro.core.cost import PAPER_R420
    from repro.core.setcover import naive_selection, select_bitmasks
    from repro.gen2.sgtin import Sgtin96, warehouse_population

    tags, _ = warehouse_population(
        200, n_companies=3, skus_per_company=4, rng=7
    )
    by_sku = defaultdict(list)
    for index, tag in enumerate(tags):
        identity = Sgtin96.decode(tag)
        by_sku[(identity.company_prefix, identity.item_reference)].append(index)
    carton = max(by_sku.values(), key=len)[:10]
    table = IndexedBitmaskTable(tags)
    rows = table.candidate_rows(carton)
    greedy = select_bitmasks(
        rows, carton, [tags[i] for i in carton], len(tags), PAPER_R420, rng=1
    )
    naive = naive_selection([tags[i] for i in carton], PAPER_R420)
    return greedy, naive


def test_sgtin_structured_populations():
    greedy, naive = _sgtin_comparison()
    print()
    print(
        f"SGTIN carton of 10: greedy {len(greedy.bitmasks)} mask(s) at "
        f"{greedy.total_cost_s * 1e3:.1f} ms vs naive "
        f"{naive.total_cost_s * 1e3:.1f} ms "
        f"({naive.total_cost_s / greedy.total_cost_s:.1f}x)"
    )
    # One SKU shares its leading ~58 bits: a whole carton collapses into
    # very few masks, and the cost advantage is large.
    assert len(greedy.bitmasks) <= 3
    assert naive.total_cost_s / greedy.total_cost_s > 2.5


def _aispec_mode_rows():
    """Live-loop IRR gain under the paper's two LLRP realisations."""
    import numpy as np

    from repro.core import TagwatchConfig
    from repro.experiments.harness import build_lab, read_all_irr

    rows = []
    for mode in ("per-bitmask", "single"):
        setup = build_lab(n_tags=100, n_mobile=5, seed=101, partition=True)
        tagwatch = setup.tagwatch(
            TagwatchConfig(
                phase2_duration_s=1.5,
                aispec_mode=mode,
                fallback_fraction=1.0,
            )
        )
        tagwatch.warm_up(30.0)
        results = tagwatch.run(5)
        t0 = results[1].phase1_start_s
        t1 = results[-1].phase2_end_s
        adaptive = np.mean(
            [
                tagwatch.history.irr(v, t0, t1).irr_hz
                for v in setup.mobile_epc_values
            ]
        )
        baseline_setup = build_lab(
            n_tags=100, n_mobile=5, seed=101, partition=True
        )
        baseline, _ = read_all_irr(baseline_setup, duration_s=t1 - t0)
        base = np.mean(
            [baseline[v] for v in setup.mobile_epc_values]
        )
        rows.append([mode, float(adaptive), float(adaptive / base)])
    return rows


def test_aispec_mode():
    from repro.util.tables import format_table

    rows = _aispec_mode_rows()
    print()
    print(
        format_table(
            ["Phase II realisation", "mobile IRR (Hz)", "gain vs read-all"],
            rows,
            title=(
                "Ablation — multiple AISpecs (paper default) vs one AISpec "
                "with multiple C1G2Filters (5 mobile of 100)"
            ),
        )
    )
    by_mode = {name: gain for name, _, gain in rows}
    # In a *partitioned* deployment the antenna hints already collapse the
    # per-mask start-ups (each mask runs on one antenna), so the two
    # realisations land within ~15% of each other; the single-AISpec mode
    # wins decisively only when several targets share one antenna (see
    # tests/core/test_aispec_mode.py's single-antenna comparison).
    assert by_mode["single"] >= 0.85 * by_mode["per-bitmask"]
    assert by_mode["per-bitmask"] > 2.0  # both remain solidly adaptive
