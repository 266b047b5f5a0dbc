"""Smoke-scale runs of every figure driver, checking the paper's claims
directionally (``tests/paper/`` runs the paper-scale versions)."""

import numpy as np
import pytest

from repro.experiments import (
    fig01_tracking,
    fig02_irr,
    fig03_trace,
    fig08_gmm,
    fig12_roc,
    fig13_sensitivity,
    fig14_learning,
    fig15_feasibility,
    fig17_cost,
    fig18_gain,
)


class TestFig02:
    @pytest.fixture(scope="class")
    def result(self):
        return fig02_irr.run(
            tag_counts=(1, 5, 10, 20), initial_qs=(4,), repeats=6, seed=1
        )

    def test_irr_decreases_with_population(self, result):
        irr = result.curves[0].irr_hz
        assert irr[0] > irr[-1]

    def test_large_drop(self, result):
        assert result.drop_fraction > 0.5

    def test_fitted_constants_plausible(self, result):
        assert 0.010 < result.fitted.tau0_s < 0.030
        assert 0.0001 < result.fitted.tau_bar_s < 0.0008

    def test_model_tracks_measurement(self, result):
        measured = np.array(result.curves[0].irr_hz)
        model = np.array(result.model_irr_hz)
        assert np.all(np.abs(measured - model) / measured < 0.5)

    def test_report_renders(self, result):
        assert "Fig 2" in fig02_irr.format_report(result)


class TestFig03:
    @pytest.fixture(scope="class")
    def result(self):
        return fig03_trace.run(seed=13)

    def test_headline_stats(self, result):
        assert result.top_tag_reads == 90_000
        assert result.reads_at_top_10pct > 500
        assert result.conveyed_mean_reads < 5

    def test_report_renders(self, result):
        assert "TrackPoint" in fig03_trace.format_report(result)


class TestFig08:
    @pytest.fixture(scope="class")
    def result(self):
        return fig08_gmm.run(duration_s=25.0, seed=5)

    def test_multimodal(self, result):
        assert len(result.modes) >= 2

    def test_reliable_mode_exists(self, result):
        assert result.n_reliable_modes >= 1

    def test_report_renders(self, result):
        assert "Fig 8" in fig08_gmm.format_report(result)


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12_roc.run(
            n_stationary=10,
            n_people=2,
            monitor_duration_s=40.0,
            mobile_duration_s=15.0,
            seed=11,
        )

    def test_phase_mog_dominates(self, result):
        phase_mog = result.curves["Phase-MoG"]
        assert phase_mog.tpr_at_fpr(0.2) > 0.9

    def test_phase_beats_rss(self, result):
        assert (
            result.curves["Phase-MoG"].auc > result.curves["Rss-MoG"].auc
        )

    def test_mog_beats_differencing_at_low_fpr(self, result):
        assert result.curves["Phase-MoG"].tpr_at_fpr(0.1) >= result.curves[
            "Phase-differencing"
        ].tpr_at_fpr(0.1)

    def test_report_renders(self, result):
        assert "ROC" in fig12_roc.format_report(result)


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        return fig13_sensitivity.run(
            displacements_cm=(1.0, 3.0, 5.0), trials=6, settle_s=6.0, seed=13
        )

    def test_phase_sensitive_at_small_displacement(self, result):
        assert result.phase_detection_rate[0] > 0.5

    def test_phase_near_perfect_at_3cm(self, result):
        assert result.phase_detection_rate[1] > 0.8

    def test_rss_insensitive_at_1cm(self, result):
        assert result.rss_detection_rate[0] < 0.5

    def test_phase_beats_rss_everywhere(self, result):
        for phase, rss in zip(
            result.phase_detection_rate, result.rss_detection_rate
        ):
            assert phase >= rss

    def test_report_renders(self, result):
        assert "sensitivity" in fig13_sensitivity.format_report(result)


class TestFig14:
    @pytest.fixture(scope="class")
    def result(self):
        return fig14_learning.run(duration_s=20.0, seed=17)

    def test_learning_converges(self, result):
        assert max(result.accuracy) >= 0.9

    def test_converges_within_paper_ballpark(self, result):
        """Paper: 70% accuracy by ~67 readings."""
        assert result.reads_needed(0.7) <= 90

    def test_early_accuracy_low(self, result):
        assert result.accuracy[0] < 0.5

    def test_report_renders(self, result):
        assert "learning curve" in fig14_learning.format_report(result)


class TestFig15:
    @pytest.fixture(scope="class")
    def result(self):
        return fig15_feasibility.run(n_targets=2, duration_s=4.0, seed=19)

    def test_tagwatch_beats_read_all(self, result):
        assert result.gain("tagwatch") > 2.0

    def test_tagwatch_beats_naive(self, result):
        assert (
            result.schemes["tagwatch"].target_irr_mean_hz
            > result.schemes["naive"].target_irr_mean_hz
        )

    def test_non_targets_suppressed(self, result):
        assert (
            result.schemes["tagwatch"].nontarget_irr_mean_hz
            < result.schemes["read-all"].nontarget_irr_mean_hz
        )

    def test_report_renders(self, result):
        assert "feasibility" in fig15_feasibility.format_report(result)


class TestFig17:
    @pytest.fixture(scope="class")
    def result(self):
        return fig17_cost.run(
            n_tags=30,
            n_mobile=2,
            n_cycles=12,
            warmup_cycles=6,
            phase2_duration_s=0.6,
            seed=23,
        )

    def test_overhead_small_vs_cycle(self, result):
        assert result.p90_ms / 1000.0 < 0.05 * result.cycle_duration_s

    def test_p50_single_digit_ms(self, result):
        assert result.p50_ms < 15.0

    def test_cdf_monotone(self, result):
        values = [v for _, v in result.cdf()]
        assert values == sorted(values)

    def test_report_renders(self, result):
        assert "overhead" in fig17_cost.format_report(result)


class TestFig18:
    @pytest.fixture(scope="class")
    def result(self):
        return fig18_gain.run(
            percents=(5.0, 20.0),
            populations=(40,),
            n_cycles=5,
            warmup_cycles=1,
            phase2_duration_s=1.0,
            seed=29,
        )

    def test_gain_positive_at_low_percent(self, result):
        assert result.median_gain(5.0, "greedy") > 1.5

    def test_gain_shrinks_with_percent(self, result):
        assert result.median_gain(20.0, "greedy") < result.median_gain(
            5.0, "greedy"
        )

    def test_tagwatch_not_worse_than_naive(self, result):
        for percent in result.percents:
            assert (
                result.median_gain(percent, "greedy")
                >= result.median_gain(percent, "naive") - 0.2
            )

    def test_report_renders(self, result):
        assert "IRR gain" in fig18_gain.format_report(result)


class TestFig01:
    @pytest.fixture(scope="class")
    def result(self):
        return fig01_tracking.run(
            stationary_counts=(0, 14), duration_s=4.0, seed=31
        )

    def test_accuracy_degrades_with_contention(self, result):
        clean = result.case("read-all (1+0)")
        crowded = result.case("read-all (1+14)")
        assert crowded.mean_error_cm > 2 * clean.mean_error_cm

    def test_tagwatch_restores_accuracy(self, result):
        tagwatch = result.case("tagwatch (1+14)")
        crowded = result.case("read-all (1+14)")
        assert tagwatch.mean_error_cm < crowded.mean_error_cm / 2

    def test_tagwatch_restores_rate(self, result):
        tagwatch = result.case("tagwatch (1+14)")
        crowded = result.case("read-all (1+14)")
        assert tagwatch.mobile_irr_hz > 1.5 * crowded.mobile_irr_hz

    def test_report_renders(self, result):
        assert "tracking accuracy" in fig01_tracking.format_report(result)


class TestFusionExtension:
    def test_fusion_detector_in_roc(self):
        result = fig12_roc.run(
            n_stationary=8,
            n_people=1,
            monitor_duration_s=30.0,
            mobile_duration_s=12.0,
            seed=11,
            include_fusion=True,
        )
        fusion = result.curves["Fusion (phase+RSS MoG)"]
        phase_mog = result.curves["Phase-MoG"]
        # The documented *negative* result: max-fusion imports RSS's false
        # positives and cannot beat phase alone — the measured ground for
        # the paper's phase-only design.
        assert fusion.auc <= phase_mog.auc + 1e-9
