"""Repeat the benchmark and summarise each metric's median and quartiles.

    python3 bench/baseline.py --seeds 1,1,1,1,1,2,2,2,2,2 --out bench/results/baseline.json

Runs ``bench/run.py`` once per (seed, workload), one run at a time, and
writes per workload and metric the values, median, quartiles
(``statistics.quantiles(values, n=4)``) and relative spread
``(q3 - q1) / median`` — over all runs and per seed — for the end-to-end
metrics and the run-level numbers, and median and quartiles for the
per-layer metrics.  ``suggested_bound`` is ``max(0.05, 3 * spread)``,
capped at 0.25, the rule the bounds in ``BENCHMARK.json`` follow.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import END_TO_END  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Deterministic numbers reported beside the host-time metrics.
RUN_METRICS = (
    "slots_per_wall_s", "error_rate", "tau0_err_pct", "tau_bar_err_pct", "irr_gain_p50",
    "missed_rate", "decision_ms_p50", "decision_ms_p95",
)


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,1,1,1,1,2,2,2,2,2")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    names = args.workload or list(WORKLOADS)

    build_dir = os.path.join(os.path.dirname(HERE), ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            with tempfile.NamedTemporaryFile(suffix=".json", dir=build_dir, delete=False) as handle:
                path = handle.name
            try:
                subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                     "--seed", str(seed), "--out", path],
                    check=True, stdout=subprocess.DEVNULL,
                )
                with open(path, encoding="utf-8") as handle:
                    runs[name].append(json.load(handle)[0])
            finally:
                os.unlink(path)
            print(f"seed {seed} {name} done", file=sys.stderr, flush=True)

    summary: Dict[str, dict] = {"seeds": seeds, "workloads": {}}
    for name, results in runs.items():
        metrics: Dict[str, dict] = {}
        for metric, unit in END_TO_END:
            values = [r["end_to_end"][metric] for r in results]
            entry = {"unit": unit, "values": values, **spread(values)}
            entry["by_seed"] = {
                str(seed): spread([r["end_to_end"][metric] for r in results if r["seed"] == seed])
                for seed in sorted(set(seeds))
            }
            entry["suggested_bound"] = min(0.25, max(0.05, 3 * entry["spread"]))
            metrics[metric] = entry
        for metric in RUN_METRICS:
            values = [r["extras"][metric] for r in results if r["extras"].get(metric) is not None]
            if values:
                metrics[metric] = {"values": values, **spread(values)}
        layers = {
            metric: {"unit": unit, **spread([r["per_layer"][metric] for r in results])}
            for metric, unit in LAYER_METRICS
        }
        summary["workloads"][name] = {
            "metrics": metrics,
            "per_layer": layers,
            "untraced_walls_s": [r["extras"]["untraced_walls_s"] for r in results],
            "all_correct": all(r["correct"] for r in results),
            "env": results[0]["env"],
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
