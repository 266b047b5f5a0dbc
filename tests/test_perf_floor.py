"""The perf-floor gate's comparator on synthetic fresh and baseline results."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "ci" / "perf_floor.py"
_spec = importlib.util.spec_from_file_location("perf_floor", _PATH)
perf_floor = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_floor)

ENV = {"ckernel_compiled": True, "nproc": 2, "numpy": "2.0", "python": "3.11"}
BASE = {"execution_s": 2.0, "setup_s": 0.3, "peak_rss_mb": 100.0}


def _baseline(*names):
    return {name: {"end_to_end": dict(BASE), "env": dict(ENV)} for name in names}


def _fresh(name, correct=True, **scale):
    return {
        "workload": name,
        "correct": correct,
        "problems": [] if correct else ["1 of 30 units failed"],
        "end_to_end": {m: v * scale.get(m, 1.0) for m, v in BASE.items()},
        "env": dict(ENV),
    }


def test_bounds_come_from_the_benchmark_declaration():
    bounds = perf_floor.load_bounds()
    assert set(perf_floor.GATED) <= set(bounds)
    assert bounds["execution_s"] == 0.25


@pytest.mark.parametrize(
    "scale, passed",
    [
        ({"execution_s": 1.26}, False),
        ({"execution_s": 1.24}, True),
        ({"peak_rss_mb": 1.26}, False),
        ({"setup_s": 1.60}, True),
    ],
)
def test_only_gated_metrics_fail_past_their_bound(scale, passed):
    bounds = perf_floor.load_bounds()
    ok, lines = perf_floor.compare([_fresh("a", **scale)], _baseline("a"), bounds)
    assert ok is passed
    assert len(lines) == len(bounds)
    (setup,) = [ln for ln in lines if "setup_s" in ln]
    assert setup.startswith("info") and f"{scale.get('setup_s', 1.0):.2f}x" in setup


def test_incorrect_run_fails():
    ok, lines = perf_floor.compare(
        [_fresh("a", correct=False)], _baseline("a"), perf_floor.load_bounds()
    )
    assert not ok
    assert lines[0] == "FAIL a: not correct: 1 of 30 units failed"


@pytest.mark.parametrize(
    "fresh, baseline, message",
    [
        (["a"], ("a", "b"), "FAIL b: missing from this run"),
        (["a", "b"], ("a",), "FAIL b: missing from the baseline"),
    ],
)
def test_missing_workload_fails(fresh, baseline, message):
    ok, lines = perf_floor.compare(
        [_fresh(name) for name in fresh], _baseline(*baseline),
        perf_floor.load_bounds(),
    )
    assert not ok
    assert message in lines
