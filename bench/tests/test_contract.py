"""BENCHMARK.json agrees with what run.py prints, and run.py refuses to
run without the program beside it."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import run
import spans
from conftest import BENCH, ROOT
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_declared_metrics_are_the_printed_ones():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_names_units_and_bounds_are_valid():
    spec = _spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    for workload in spec["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert spec["paths"] == [os.path.relpath(BENCH, ROOT)]
    assert spec["command"][1:] == [os.path.relpath(os.path.join(BENCH, "run.py"), ROOT)]


def test_every_metric_is_printed(quick_results):
    for result in quick_results.values():
        report = "\n".join(run.format_report(result))
        for name, unit in list(run.END_TO_END) + list(spans.LAYER_METRICS):
            assert re.search(rf"\b{re.escape(name)}\s+\S+ {re.escape(unit)}\b", report), name
        assert set(run._select(result, 0)) == {n for n, _u in run.END_TO_END}
        assert set(run._select(result, 1)) == {n for n, _u in spans.LAYER_METRICS}


def test_without_the_program_it_fails_and_prints_no_result():
    alone = tempfile.mkdtemp(prefix="alone-", dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(BENCH, os.path.join(alone, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "irr_sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=alone, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(alone, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
