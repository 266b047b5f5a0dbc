"""Bench harness: budget reduction, JSON export, overhead acceptance."""

import json
import time

import pytest

from repro.obs import Tracer, use_tracer, validate_chrome_trace, to_chrome_trace
from repro.obs.bench import (
    WORKLOADS,
    BenchResult,
    _analyze,
    _engine_provenance,
    format_reader_table,
    format_report,
    run_bench,
    write_bench,
)


@pytest.fixture(scope="module")
def fig02_result():
    return run_bench("fig02", scale="smoke")


def test_unknown_workload_and_scale_rejected():
    with pytest.raises(ValueError, match="unknown bench workload"):
        run_bench("fig99")
    with pytest.raises(ValueError, match="unknown bench scale"):
        run_bench("fig02", scale="huge")


def test_workload_registry():
    assert set(WORKLOADS) == {"fig02", "fig18", "site", "soak"}


def test_fig02_budget_reduction(fig02_result):
    result = fig02_result
    assert result.name == "fig02" and result.scale == "smoke"
    assert result.counts["rounds"] > 0
    assert result.counts["frames"] >= result.counts["rounds"]
    assert result.breakdown["round_startup_s"] > 0
    assert result.breakdown["slot_s"] > 0
    assert result.sim_s > 0
    assert result.wall_s > 0
    # Pure inventory: no Tagwatch cycles, no schedule/assess CPU.
    assert result.counts["cycles"] == 0
    assert result.breakdown["scheduler_cpu_s"] == 0.0
    assert "tau0_ms" in result.workload


def test_write_bench_json_shape(fig02_result, tmp_path):
    path = write_bench(fig02_result, str(tmp_path))
    assert path.endswith("BENCH_fig02.json")
    data = json.loads(open(path).read())
    assert data["name"] == "fig02"
    assert set(data) == {
        "name", "scale", "wall_s", "sim_s", "slots_per_wall_s",
        "startup_cpu_share", "breakdown", "counts", "workload", "engine",
    }
    assert data["engine"]["flight_recorder"] is False
    assert data["engine"]["inventory_engine"]
    assert 0.0 <= data["startup_cpu_share"] <= 1.0
    assert data["counts"]["rounds"] == fig02_result.counts["rounds"]


def test_engine_provenance_follows_the_kernel(monkeypatch):
    from repro.gen2 import _ckernel

    compiled = _ckernel.load_kernel() is not None
    assert _engine_provenance(False)["inventory_engine"] == (
        "calendar" if compiled else "reference"
    )
    # Without the compiled kernel every round runs on the slot walk, and
    # the provenance block must say so whatever the environment holds.
    monkeypatch.setattr(_ckernel, "load_kernel", lambda: None)
    assert _engine_provenance(True) == {
        "inventory_engine": "reference",
        "ckernel_compiled": False,
        "flight_recorder": True,
    }


def test_format_report_lists_each_workload(fig02_result):
    table = format_report([fig02_result])
    assert "fig02/smoke" in table
    assert "sim s" in table


def test_bench_reuses_ambient_tracer():
    tracer = Tracer()
    with use_tracer(tracer):
        result = run_bench("fig02", scale="smoke")
    assert result.counts["rounds"] > 0
    assert len(tracer.records) > 0  # the session trace kept the records
    assert validate_chrome_trace(to_chrome_trace(tracer)) == []


# ----------------------------------------------------------------------
# Trace-reduction accounting (no double counting)
# ----------------------------------------------------------------------
def _round(tracer, start, end, startup, n_slots=10):
    span = tracer.begin("round", t=start, category="gen2",
                        startup_s=startup, n_slots=n_slots, n_frames=1)
    tracer.end(span, t=end)


def test_analyze_breakdown_sums_to_sim_s():
    """Rounds tiling a window must account for every simulated second once.

    ``slot_s + round_startup_s`` is the exact span total — no interval is
    counted twice and none is dropped — so for a trace that is nothing but
    back-to-back rounds the budget lines sum to ``sim_s`` bit for bit.
    """
    tracer = Tracer()
    _round(tracer, 0.0, 1.0, startup=0.2)
    _round(tracer, 1.0, 2.5, startup=0.3)
    _round(tracer, 2.5, 3.0, startup=0.1)
    analysis = _analyze(tracer.records)
    breakdown = analysis["breakdown"]
    assert analysis["sim_s"] == 3.0
    assert breakdown["round_startup_s"] + breakdown["slot_s"] == analysis["sim_s"]
    assert breakdown["round_startup_s"] == 0.2 + 0.3 + 0.1


def test_analyze_clamps_startup_of_truncated_rounds():
    """A round cut short mid-start-up must not bill more than its span."""
    tracer = Tracer()
    _round(tracer, 0.0, 0.1, startup=0.5)  # truncated inside startup
    analysis = _analyze(tracer.records)
    breakdown = analysis["breakdown"]
    assert breakdown["round_startup_s"] == 0.1
    assert breakdown["slot_s"] == 0.0
    assert breakdown["round_startup_s"] + breakdown["slot_s"] == analysis["sim_s"]


def test_analyze_excludes_select_events_nested_in_rounds():
    """Select cost inside a round span is already covered by the span."""
    tracer = Tracer()
    # Reader-style: select fires outside the engine's round span -> counted.
    outer = tracer.begin("inventory_round", t=0.0, category="reader")
    tracer.event("select", t=0.0, category="gen2", extra_cost_s=0.25)
    _round(tracer, 0.25, 1.0, startup=0.1)
    tracer.end(outer, t=1.0)
    # Foreign-style: select fires *inside* a round span -> excluded.
    span = tracer.begin("round", t=1.0, category="gen2",
                        startup_s=0.1, n_slots=5, n_frames=1)
    tracer.event("select", t=1.0, category="gen2", extra_cost_s=0.75)
    tracer.end(span, t=2.0)
    analysis = _analyze(tracer.records)
    assert analysis["breakdown"]["select_extra_s"] == 0.25
    assert analysis["counts"]["selects"] == 2


def test_startup_cpu_share_derivation():
    result = BenchResult(
        name="x", scale="smoke", wall_s=1.0, sim_s=4.0,
        breakdown={"round_startup_s": 1.0, "slot_s": 3.0},
        counts={"slots": 100},
    )
    assert result.startup_cpu_share == 0.25
    assert result.slots_per_wall_s == 100.0
    empty = BenchResult(
        name="x", scale="smoke", wall_s=0.0, sim_s=0.0,
        breakdown={}, counts={},
    )
    assert empty.startup_cpu_share == 0.0
    assert empty.slots_per_wall_s == 0.0


# ----------------------------------------------------------------------
# Site attribution: site_reader spans are the site layer's cycles
# ----------------------------------------------------------------------
def _site_reader_span(tracer, reader, start, end, n_tags=50, n_rounds=2,
                      n_reports=10):
    span = tracer.begin("site_reader", t=start, category="site",
                        reader=reader, read_loss=0.1, n_tags=n_tags)
    tracer.end(span, t=end, n_reports=n_reports, n_rounds=n_rounds)


def test_analyze_counts_site_reader_spans_as_cycles():
    tracer = Tracer()
    _site_reader_span(tracer, reader=0, start=0.0, end=0.25)
    _site_reader_span(tracer, reader=1, start=0.0, end=0.25, n_tags=7)
    analysis = _analyze(tracer.records)
    assert analysis["counts"]["cycles"] == 2
    rows = analysis["readers"]
    assert [row["reader"] for row in rows] == [0, 1]
    assert rows[1]["n_tags"] == 7
    assert rows[0]["sim_s"] == 0.25
    assert rows[0]["n_rounds"] == 2 and rows[0]["n_reports"] == 10
    assert all(row["wall_s"] >= 0.0 for row in rows)


def test_site_bench_attribution_and_reader_table():
    """The site workload reports truthful cycles and a per-reader table."""
    result = run_bench("site", scale="smoke", warmup=0, repeats=1)
    assert result.counts["cycles"] > 0
    assert len(result.readers) == result.counts["cycles"]
    assert "readers" in result.to_dict()
    table = format_reader_table(result)
    assert "per-reader wall attribution" in table
    assert "shard tags" in table
    # Non-site workloads keep their historical JSON shape: no readers key.
    assert "readers" not in BenchResult(
        name="x", scale="smoke", wall_s=1.0, sim_s=1.0,
        breakdown={}, counts={},
    ).to_dict()


def test_write_bench_merges_tiers(tmp_path):
    """Secondary scales land under ``tiers`` and survive smoke rewrites."""
    smoke = BenchResult(
        name="site", scale="smoke", wall_s=1.0, sim_s=1.0,
        breakdown={}, counts={"slots": 10},
    )
    large = BenchResult(
        name="site", scale="large", wall_s=2.0, sim_s=4.0,
        breakdown={}, counts={"slots": 400},
    )
    out = str(tmp_path)
    path = write_bench(smoke, out)
    write_bench(large, out)
    data = json.loads(open(path).read())
    assert data["scale"] == "smoke"
    assert data["counts"]["slots"] == 10
    assert data["tiers"]["large"]["counts"]["slots"] == 400
    # Refreshing the smoke tier must not discard the committed large tier.
    write_bench(smoke, out)
    data = json.loads(open(path).read())
    assert data["tiers"]["large"]["counts"]["slots"] == 400
    # Refreshing the large tier must not perturb the smoke top level.
    write_bench(large, out)
    data = json.loads(open(path).read())
    assert data["scale"] == "smoke" and data["counts"]["slots"] == 10
    # A smoke write over a large-only file promotes smoke to the top.
    solo = str(tmp_path / "solo")
    import os
    os.makedirs(solo)
    path2 = write_bench(large, solo)
    write_bench(smoke, solo)
    data = json.loads(open(path2).read())
    assert data["scale"] == "smoke"
    assert data["tiers"]["large"]["counts"]["slots"] == 400


def _time_fig02(repeats=3):
    from repro.experiments import fig02_irr

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fig02_irr.run(tag_counts=(1, 5, 10, 20), initial_qs=(4,), repeats=4)
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_tracer_overhead_is_small():
    """Acceptance: tracing off must cost < 2% wall on the fig02 workload.

    Timing comparisons on shared CI boxes are noisy, so the assertion
    allows generous headroom over the 2% budget while still catching a
    pathological regression (e.g. per-slot work no longer gated on
    ``tracer.enabled``).
    """
    baseline = _time_fig02()
    traced = Tracer()
    with use_tracer(traced):
        _time_fig02(repeats=1)
    disabled = _time_fig02()
    assert disabled <= baseline * 1.25 + 0.05
