"""One benchmark pass in a fresh interpreter; prints one JSON line.

Started by ``bench/run.py``, never by hand:

    python3 bench/worker.py --mode {setup,untraced,traced} --workload W \
        --seed S --tmp DIR [--seconds T] [--quick] [--untraced-wall-s X]

``setup`` times importing the workload's modules, loading the C kernel and
building the seeded inputs.  ``untraced`` runs one untimed ``--quick``
warm-up, then timed executions until ``--seconds`` have passed (at least
three).  ``traced`` runs one execution with the span wrappers installed.
Outputs are digested after each timed region closes.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans
import workloads

MIN_EXECUTIONS = 3


def _setup(workload, seed: int, quick: bool) -> dict:
    for name in workload.modules:
        importlib.import_module(name)
    kernel = importlib.import_module("repro.gen2._ckernel").load_kernel()
    workload.inputs(seed, quick)
    return {
        "setup_s": time.perf_counter() - _START,
        "ckernel_compiled": kernel is not None,
    }


def _run_once(workload, inputs, tmp: str, recorder=None):
    """One execution; returns (wall seconds, outputs, root span snapshot)."""
    workdir = tempfile.mkdtemp(prefix="exec-", dir=tmp)
    try:
        if recorder is not None:
            recorder.reset()
        start = time.perf_counter()
        outputs = workload.execute(inputs, workdir)
        wall = time.perf_counter() - start
        snapshot = list(recorder.spans) if recorder is not None else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return wall, outputs, snapshot


def _untraced(workload, args) -> dict:
    _run_once(workload, workload.inputs(args.seed, True), args.tmp)
    inputs = workload.inputs(args.seed, args.quick)
    walls, summaries = [], []
    began = time.perf_counter()
    while len(walls) < MIN_EXECUTIONS or time.perf_counter() - began < args.seconds:
        wall, outputs, _ = _run_once(workload, inputs, args.tmp)
        walls.append(wall)
        summaries.append(workload.summarize(outputs))
        del outputs
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {"walls": walls, "summaries": summaries, "peak_rss_mb": rss_kb / 1024.0}


def _traced(workload, args) -> dict:
    inputs = workload.inputs(args.seed, args.quick)
    span_dir = tempfile.mkdtemp(prefix="spans-", dir=args.tmp)
    recorder = spans.Recorder()
    spans.install(recorder, span_dir)
    try:
        wall, outputs, parent_spans = _run_once(workload, inputs, args.tmp, recorder)
    finally:
        spans.uninstall()
    processes = [(os.getpid(), parent_spans)] + spans.read_worker_spans(span_dir)
    shutil.rmtree(span_dir, ignore_errors=True)
    agg = spans.aggregate(processes)
    layers = spans.layer_metrics(agg, wall, args.untraced_wall_s or wall)
    return {
        "wall": wall,
        "summary": workload.summarize(outputs),
        "layers": layers,
        "parent_self_s": agg["parent_self_s"],
        "roots_s": sum(end - start for _i, parent, _n, start, end, _c in parent_spans if parent < 0),
        "cycle_slots": spans.count_under(parent_spans, "gen2.run_round", "slots", "core.run_cycle"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--untraced-wall-s", type=float, default=0.0)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    try:
        if args.mode == "setup":
            result = _setup(workload, args.seed, args.quick)
        elif args.mode == "untraced":
            result = _untraced(workload, args)
        else:
            result = _traced(workload, args)
    except Exception:
        traceback.print_exc()
        result = {"error": traceback.format_exc(limit=3)}
    result["python"] = platform.python_version()
    result["numpy"] = sys.modules["numpy"].__version__ if "numpy" in sys.modules else None
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
