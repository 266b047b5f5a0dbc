"""Self-time arithmetic and wrapper installation."""

from __future__ import annotations

import pytest

import spans


def _span(sid, parent, name, start, end, counts=None):
    return (sid, parent, name, start, end, counts)


def test_self_time_subtracts_direct_children_only():
    nested = [
        _span(1, 0, "a", 1.0, 3.0),
        _span(3, 2, "c", 5.0, 6.0),
        _span(2, 0, "b", 4.0, 8.0),
        _span(0, -1, "root", 0.0, 10.0),
    ]
    assert spans.self_times(nested) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_cross_process_spans_never_subtract_from_the_parent():
    parent = [
        _span(1, 0, "parallel.map", 1.0, 9.0, {"workers": 2}),
        _span(0, -1, "site.simulate_site", 0.0, 10.0),
    ]
    worker_a = [
        _span(7, 6, "gen2.run_round", 3.0, 5.0, {"slots": 40, "reads": 10, "lost": 1}),
        _span(6, -1, spans.TASK_SPAN, 2.0, 6.0),
    ]
    worker_b = [_span(9, -1, spans.TASK_SPAN, 2.0, 4.0)]
    agg = spans.aggregate([(100, parent), (200, worker_a), (201, worker_b)])
    assert agg["self_s"]["parallel.map"] == 8.0  # a leaf in the parent
    assert agg["self_s"]["site.simulate_site"] == 2.0
    assert agg["self_s"][spans.TASK_SPAN] == 4.0  # (4 - 2) + 2
    assert agg["parent_self_s"] == 10.0
    assert sorted(agg["task_durations"]) == [2.0, 4.0]

    layers = spans.layer_metrics(agg, traced_wall_s=12.0, untraced_wall_s=10.0)
    assert layers["bench.unattributed_s"] == 2.0
    assert agg["parent_self_s"] + layers["bench.unattributed_s"] == 12.0
    assert layers["bench.trace_overhead"] == pytest.approx(1.2)
    assert layers["parallel.workers"] == 2
    assert layers["parallel.busy_share"] == pytest.approx(6.0 / (2 * 8.0))
    assert layers["parallel.skew"] == pytest.approx(4.0 / 3.0)
    assert layers["gen2.slots"] == 40
    assert layers["gen2.read_efficiency"] == pytest.approx(0.25)
    assert layers["gen2.ns_per_slot"] == pytest.approx(2.0 / 40 * 1e9)
    assert layers["site.simulate_site.self_share"] == pytest.approx(2.0 / 12.0)
    assert set(layers) == {name for name, _unit in spans.LAYER_METRICS + spans.REPORT_METRICS}


def test_count_under_follows_ancestors_at_any_depth():
    tree = [
        _span(2, 1, "gen2.run_round", 0.2, 0.3, {"slots": 5}),
        _span(1, 0, "reader.inventory_round", 0.1, 0.4),
        _span(0, -1, "core.run_cycle", 0.0, 1.0),
        _span(3, -1, "gen2.run_round", 2.0, 2.1, {"slots": 7}),
    ]
    assert spans.count_under(tree, "gen2.run_round", "slots", "core.run_cycle") == 5


def test_install_patches_every_namespace_and_uninstall_restores(bench_tmp):
    import repro.experiments.parallel as parallel
    import repro.site.site as site
    from repro.gen2.inventory import InventoryEngine

    original_map = parallel.parallel_map
    original_round = InventoryEngine.run_round
    recorder = spans.Recorder()
    spans.install(recorder, bench_tmp)
    try:
        assert site.parallel_map is parallel.parallel_map is not original_map
        assert InventoryEngine.run_round is not original_round
        with pytest.raises(RuntimeError):
            spans.install(spans.Recorder(), bench_tmp)
    finally:
        spans.uninstall()
    assert site.parallel_map is original_map
    assert parallel.parallel_map is original_map
    assert InventoryEngine.run_round is original_round
