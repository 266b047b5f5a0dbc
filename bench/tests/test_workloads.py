"""Every quick workload: checks pass, and each boundary is exercised exactly
where it should be (a wrapper patched into the wrong namespace records
nothing and fails here)."""

from __future__ import annotations

import pytest

from spans import BOUNDARIES, TASK_SPAN

ALWAYS = {"gen2.run_round", "world.observe_batch", "world.tags_in_range",
          "reader.inventory_round", "reader.participants"}
CORE = {"core.observe_all", "core.assess", "core.plan", "core.candidate_rows",
        "core.select_bitmasks", "core.run_cycle", "core.warm_up"}
SITE = {"site.build_reader", "site.reachable_tag_indices", "site.ingest_rows",
        "site.simulate_site", "parallel.map", TASK_SPAN}
SOAK = {"faults.apply_round", "runtime.checkpoint_save", "runtime.checkpoint_load",
        "runtime.supervisor_cycle", "health.observe_cycle"}

EXERCISED = {
    "irr_sweep": ALWAYS,
    "tagwatch_mobility": ALWAYS | CORE,
    "site_aisle": ALWAYS | SITE,
    "soak_chaos": ALWAYS | CORE | SOAK,
}
ALL = {name for name, _target, _count in BOUNDARIES} | {TASK_SPAN}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_boundaries_record_calls_only_where_exercised(quick_results, workload):
    layers = quick_results[workload]["per_layer"]
    for name in sorted(ALL):
        calls = layers[f"{name}.calls"]
        if name in EXERCISED[workload]:
            assert calls > 0, f"{name} never called on {workload}"
        else:
            assert calls == 0, f"{name} called {calls} times on {workload}"


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_digests_equal_untraced_and_slot_counts_agree(quick_results, workload):
    result = quick_results[workload]
    assert result["problems"] == []
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert result["per_layer"]["gen2.slots"] > 0


def test_attribution_is_mostly_accounted_for(quick_results):
    for result in quick_results.values():
        assert 0 <= result["per_layer"]["bench.unattributed_share"] < 0.25


def test_untraced_only_run_checks_executions_against_each_other(bench_tmp):
    import run
    from conftest import QUICK_SEED

    result = run.bench_workload("irr_sweep", QUICK_SEED, 0.0, True, None, bench_tmp, trace=False)
    assert result["problems"] == []
    assert result["per_layer"] == {}
    assert result["attempted"] == 3 * 30
    assert set(run._select(result, 0)) == {n for n, _u in run.END_TO_END}
