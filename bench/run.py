"""The repository benchmark: four fixed-size workloads, each in fresh interpreters.

    python3 bench/run.py                          # every workload, seed 1
    python3 bench/run.py --workload site_aisle --seed 7 --seconds 12 --trace 0
    python3 bench/run.py --quick                  # small sizes, seconds total
    python3 bench/run.py --update-expected        # rewrite expected digests

Per workload, one interpreter at a time (see ``bench/worker.py``):

1. set-up: one untimed interpreter primes the C-kernel build and bytecode
   caches, then ``setup_s`` is the median of five timed ones;
2. untraced pass: an untimed ``--quick`` warm-up, then timed executions for
   ``--seconds`` (at least three); ``execution_s`` is the fastest of them;
   no wrappers are installed;
3. traced pass: one execution with the span wrappers installed.

Every output is digested and checked: against ``bench/expected/`` at the
default seed, otherwise against the traced pass (against each other with
``--trace 0``, which skips the traced pass).  Slot counts the program
reports must equal the traced ``gen2.slots``.  The report prints every
metric by name and unit; the last line is one JSON object whose ``metrics``
hold the per-layer metrics with ``--trace 1`` and the end-to-end metrics
otherwise.  The exit code is 1 on any check failure and 2 when the
program's sources are not beside the benchmark.  ``bench/README.md``
defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20.0
#: Timed set-up interpreters per run; their median is ``setup_s``.
SETUP_REPEATS = 5
#: Wall-time budget per workload; every child is killed past it.
BUDGET_S = 170.0
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXPECTED_DIR = os.path.join(HERE, "expected")

END_TO_END = (("execution_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: Units of the run-level numbers printed beside the metrics.  They are not
#: declared in ``BENCHMARK.json``: each exists on one workload only, or is
#: 0 on every correct run.
RUN_UNITS = {
    "slots_per_wall_s": "1/s",
    "error_rate": "ratio",
    "attempted_units": "count",
    "failed_units": "count",
    "tau0_ms": "ms",
    "tau_bar_ms": "ms",
    "tau0_err_pct": "%",
    "tau_bar_err_pct": "%",
    "irr_gain_p50": "x",
    "irr_gain_p50_5pct": "x",
    "irr_gain_p50_10pct": "x",
    "irr_gain_p50_20pct": "x",
    "missed_rate": "ratio",
    "decision_ms_n": "count",
    "decision_ms_p50": "ms",
    "decision_ms_p95": "ms",
}


class BenchError(RuntimeError):
    """A worker failed, timed out or printed no result."""


def _child_env(tmp: str) -> Dict[str, str]:
    # Engine switches from the caller's shell would change what is timed.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_LOG_LEVEL"] = "WARNING"
    # The C kernel and every temp file stay inside the checkout.
    env["REPRO_KERNEL_BUILD_DIR"] = os.path.join(BUILD_DIR, "ckernel")
    env["TMPDIR"] = tmp
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(mode: str, workload: str, seed: int, tmp: str, deadline: float,
               quick: bool, *extra: str) -> dict:
    """Run one ``worker.py`` pass; its process group dies at ``deadline``."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--tmp", tmp, *extra]
    if quick:
        cmd.append("--quick")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(tmp), stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{mode} worker for {workload} ran out of time") from exc
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if "error" in result:
        raise BenchError(f"{mode} worker for {workload} failed:\n{result['error']}")
    return result


def _load_expected(seed: int) -> dict:
    path = os.path.join(EXPECTED_DIR, f"seed-{seed}.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _failed_units(summary: dict, reference: Dict[str, str]) -> int:
    weights = summary.get("weights", {})
    violations = summary.get("violations", {})
    failed = 0
    for key in set(reference) | set(summary["units"]):
        if summary["units"].get(key) != reference.get(key):
            failed += weights.get(key, 1)
        else:
            failed += violations.get(key, 0)
    return failed


def _units(summary: dict) -> int:
    weights = summary.get("weights", {})
    return sum(weights.get(key, 1) for key in summary["units"])


def bench_workload(name: str, seed: int, seconds: float, quick: bool,
                   expected: Optional[Dict[str, str]], tmp: str, trace: bool = True) -> dict:
    """The passes of one workload, its checks and its metrics.

    Without ``trace`` the traced pass is skipped: no per-layer metrics, no
    slot cross-check, and at a seed without expected digests the untraced
    executions are checked against each other.
    """
    deadline = time.monotonic() + BUDGET_S
    setup = [run_worker("setup", name, seed, tmp, deadline, quick)
             for _ in range(1 + (1 if quick else SETUP_REPEATS))][1:]
    untraced = run_worker("untraced", name, seed, tmp, deadline, quick,
                          "--seconds", str(seconds))
    # Every execution does identical work, so the fastest is the one least
    # slowed by other load on the host; that is the headline.
    execution_s = min(untraced["walls"])
    median_wall = statistics.median(untraced["walls"])
    summaries = list(untraced["summaries"])
    traced = None
    if trace:
        traced = run_worker("traced", name, seed, tmp, deadline, quick,
                            "--untraced-wall-s", repr(median_wall))
        summaries.append(traced["summary"])
    last = summaries[-1]

    problems: List[str] = []
    reference = last["units"] if expected is None else expected
    if not reference:
        problems.append("no expected digests for this seed: run with --update-expected")
    attempted = sum(_units(s) for s in summaries)
    failed = sum(_failed_units(s, reference) for s in summaries)
    if failed:
        problems.append(f"{failed} of {attempted} units failed (digest mismatch or invariant violation)")
    exposed = last["exposed_slots"]
    if any(s["exposed_slots"] != exposed for s in summaries):
        problems.append("slot counts differ between executions")

    extras: Dict[str, object] = {
        "error_rate": failed / attempted if attempted else 1.0,
        "attempted_units": attempted,
        "failed_units": failed,
        "untraced_walls_s": untraced["walls"],
        "setup_runs_s": [r["setup_s"] for r in setup],
    }
    layers: Dict[str, float] = {}
    if traced is not None:
        layers = traced["layers"]
        problems.extend(_trace_problems(traced, exposed))
        extras["slots_per_wall_s"] = layers["gen2.slots"] / execution_s
    extras.update(last["fidelity"])
    decisions = [ms for s in untraced["summaries"] for ms in s.get("decision_ms", [])]
    if decisions:
        summary = stats.latency_summary(decisions)
        extras["decision_ms_n"] = summary["n"]
        extras["decision_ms_p50"] = summary["p50"]
        extras["decision_ms_p95"] = summary["p95"]
    return {
        "workload": name,
        "seed": seed,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "execution_s": execution_s,
            "setup_s": statistics.median(r["setup_s"] for r in setup),
            "peak_rss_mb": untraced["peak_rss_mb"],
        },
        "per_layer": layers,
        "extras": extras,
        "digests": last["units"],
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": untraced["python"],
            "numpy": untraced["numpy"],
            "ckernel_compiled": setup[0]["ckernel_compiled"],
        },
    }


def _trace_problems(traced: dict, exposed: Dict[str, int]) -> List[str]:
    """Slot counts and self-time attribution checked against the trace."""
    layers = traced["layers"]
    problems = []
    if "total" in exposed and exposed["total"] != layers["gen2.slots"]:
        problems.append(f"program reports {exposed['total']} slots, trace counted {layers['gen2.slots']}")
    if "cycles" in exposed and exposed["cycles"] != traced["cycle_slots"]:
        problems.append(f"cycle logs report {exposed['cycles']} slots, trace counted {traced['cycle_slots']}")
    if layers["reader.inventory_round.calls"] != layers["gen2.run_round.calls"]:
        problems.append("reader rounds and engine rounds differ in number")
    if (abs(traced["parent_self_s"] - traced["roots_s"]) > 1e-3
            or traced["roots_s"] > traced["wall"] + 1e-3):
        problems.append("parent self times do not add up to the traced wall time")
    return problems


def format_report(result: dict) -> List[str]:
    """Human-readable lines: every metric by name, value and unit."""
    env = result["env"]
    lines = [
        f"== {result['workload']}  seed {result['seed']}  nproc {env['nproc']}  "
        f"python {env['python']}  numpy {env['numpy']}  "
        f"ckernel_compiled {str(env['ckernel_compiled']).lower()}"
    ]
    for label, key in (("set-up interpreters", "setup_runs_s"),
                       ("untraced executions", "untraced_walls_s")):
        walls = result["extras"][key]
        lines.append(f"  {label}: {len(walls)}, host wall s: "
                     + " ".join(f"{w:.3f}" for w in walls))
    for name, unit in END_TO_END:
        lines.append(f"  e2e   {name:<28} {result['end_to_end'][name]:>16.6g} {unit}")
    for name, value in result["extras"].items():
        if name not in RUN_UNITS:
            continue
        if value is None:
            lines.append(f"  run   {name:<28} {'refused':>16} (too few samples)")
        else:
            lines.append(f"  run   {name:<28} {value:>16.6g} {RUN_UNITS[name]}")
    for name, unit in (spans.LAYER_METRICS + spans.REPORT_METRICS) if result["per_layer"] else ():
        lines.append(f"  layer {name:<32} {result['per_layer'][name]:>16.6g} {unit}")
    for problem in result["problems"]:
        lines.append(f"  FAIL  {problem}")
    return lines


def _select(result: dict, trace: Optional[int]) -> Dict[str, dict]:
    if trace == 1:
        return {n: {"value": result["per_layer"][n], "unit": u} for n, u in spans.LAYER_METRICS}
    return {n: {"value": result["end_to_end"][n], "unit": u} for n, u in END_TO_END}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help=f"untraced measuring time per workload, at least 3 executions "
                             f"(default {DEFAULT_SECONDS:g}, 0 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced pass only, end-to-end metrics in the JSON line; "
                             "1: per-layer metrics in the JSON line (default: both passes, "
                             "end-to-end metrics in the JSON line)")
    parser.add_argument("--quick", action="store_true", help="small sizes, for smoke runs and tests")
    parser.add_argument("--out", help="write every result, with its checks, to this JSON file")
    parser.add_argument("--update-expected", action="store_true",
                        help="store this seed's digests in bench/expected/")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench: no program sources at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2
    if args.update_expected and args.quick:
        parser.error("--update-expected stores full-size digests; drop --quick")

    if args.seconds is None:
        args.seconds = 0.0 if args.quick else DEFAULT_SECONDS
    names = [args.workload] if args.workload else list(WORKLOADS)
    stored = _load_expected(args.seed)
    check_expected = args.seed == DEFAULT_SEED and not args.quick and not args.update_expected
    os.makedirs(BUILD_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR)
    results = []
    try:
        for name in names:
            expected = stored.get(name, {}) if check_expected else None
            try:
                result = bench_workload(name, args.seed, args.seconds, args.quick, expected, tmp,
                                        trace=args.trace != 0)
            except BenchError as exc:
                print(f"bench: {exc}", file=sys.stderr)
                return 1
            results.append(result)
            print("\n".join(format_report(result)), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.update_expected:
        stored.update({r["workload"]: r["digests"] for r in results})
        os.makedirs(EXPECTED_DIR, exist_ok=True)
        with open(os.path.join(EXPECTED_DIR, f"seed-{args.seed}.json"), "w", encoding="utf-8") as handle:
            json.dump(stored, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)

    if len(results) == 1:
        metrics = _select(results[0], args.trace)
    else:
        metrics = {f"{r['workload']}.{n}": m for r in results for n, m in _select(r, args.trace).items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
