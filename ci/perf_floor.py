"""Perf floor: the repository benchmark against one committed baseline.

    python3 ci/perf_floor.py             # gate; exit 1 on a regression or a wrong result
    python3 ci/perf_floor.py --refresh   # re-record ci/perf_baseline.json

Each run is ``bench/run.py --trace 0`` at full size and seed 1, so every
unit digest is checked against ``bench/expected/seed-1.json``.  It keeps
the benchmark's own run length, 20 s of timed executions per workload:
``execution_s`` is the fastest of them, and on a shared host a longer
window is likelier to hold one execution no neighbour slowed.  A workload fails
the gate when its run is not correct, or when ``execution_s`` or
``peak_rss_mb`` exceeds baseline x (1 + bound), each bound being the one
``BENCHMARK.json`` declares for that metric.  ``setup_s`` is printed and
not gated: on a 2-vCPU host it spread from 0.23 s to 0.46 s over four runs,
wider than its 0.25 bound, so a verdict on it would be noise.

``--refresh`` records the per-metric median of three runs, which keeps one
lucky run from becoming the baseline.  Run it on a quiet machine after an
intentional performance change, and commit the file with that change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "ci", "perf_baseline.json")
SEED = 1
#: End-to-end metrics whose regression fails the gate.
GATED = ("execution_s", "peak_rss_mb")
REFRESH_RUNS = 3


def load_bounds() -> Dict[str, float]:
    """The regression bound of every end-to-end metric, by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}


def run_bench() -> List[dict]:
    """One full-size benchmark run: the per-workload results of ``--out``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "results.json")
        subprocess.run(
            [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--trace", "0",
             "--seed", str(SEED), "--out", out],
            cwd=ROOT, check=False,
        )
        if not os.path.exists(out):
            sys.exit("perf floor: the benchmark wrote no results")
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)


def compare(fresh: Sequence[dict], baseline: Dict[str, dict],
            bounds: Dict[str, float]) -> Tuple[bool, List[str]]:
    """Whether the fresh run passes, and one verdict line per check."""
    results = {r["workload"]: r for r in fresh}
    passed = True
    lines = []
    for name in sorted(set(results) | set(baseline)):
        if name not in results or name not in baseline:
            side = "this run" if name not in results else "the baseline"
            lines.append(f"FAIL {name}: missing from {side}")
            passed = False
            continue
        result, base = results[name], baseline[name]
        if not result["correct"]:
            lines.append(f"FAIL {name}: not correct: " + "; ".join(result["problems"]))
            passed = False
        if result["env"] != base["env"]:
            lines.append(f"note {name}: baseline env {base['env']}, this run {result['env']}")
        for metric, bound in bounds.items():
            value, reference = result["end_to_end"][metric], base["end_to_end"][metric]
            ratio = value / reference
            if metric not in GATED:
                verdict, limit = "info", "not gated"
            else:
                verdict = "ok" if ratio <= 1 + bound else "FAIL"
                limit = f"limit {1 + bound:.2f}x"
                passed = passed and verdict == "ok"
            lines.append(f"{verdict:<4} {name:<18} {metric:<12} {value:>10.4g} vs "
                         f"{reference:>10.4g}  {ratio:5.2f}x  ({limit})")
    return passed, lines


def refresh() -> int:
    """Record the per-metric median of ``REFRESH_RUNS`` correct runs."""
    runs = [run_bench() for _ in range(REFRESH_RUNS)]
    wrong = sorted({r["workload"] for run in runs for r in run if not r["correct"]})
    if wrong:
        print(f"perf floor: not recording a baseline, incorrect runs of {wrong}")
        return 1
    baseline = {}
    for result in runs[-1]:
        name = result["workload"]
        samples = [r for run in runs for r in run if r["workload"] == name]
        baseline[name] = {
            "end_to_end": {metric: statistics.median(r["end_to_end"][metric] for r in samples)
                           for metric in result["end_to_end"]},
            "env": result["env"],
        }
    with open(BASELINE, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"perf floor: wrote {os.path.relpath(BASELINE, ROOT)} from {REFRESH_RUNS} runs")
    return 0


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--refresh", action="store_true",
                        help=f"re-record the baseline from {REFRESH_RUNS} runs")
    if parser.parse_args(argv).refresh:
        return refresh()
    with open(BASELINE, encoding="utf-8") as handle:
        baseline = json.load(handle)
    passed, lines = compare(run_bench(), baseline, load_bounds())
    print("\n".join(lines))
    print(f"perf floor: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
