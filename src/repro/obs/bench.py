"""Profiling/benchmark harness: where does Tagwatch's time actually go?

Runs a named workload (the Fig 2 inventory-rate sweep, the Fig 18
end-to-end gain sweep) under a live tracer and reduces the trace to a
per-phase budget:

- **slot time** — simulated air time inside inventory frames (round
  duration minus the per-round start-up, the paper's ``n·e·τ̄·ln n`` term);
- **round start-up** — the fixed ``τ0`` paid once per round;
- **Select overhead** — extra Select commands beyond the one each round's
  start-up already covers (what the set cover is minimising);
- **Phase I / Phase II** — cycle-level simulated intervals;
- **scheduler / assessment CPU** — wall-clock spent planning covers and
  updating GMMs (simulated time stands still while they run).

``python -m repro bench`` (or ``make bench``) prints the table and writes
one ``BENCH_<name>.json`` per workload, seeding the repo's performance
trajectory: commit the JSON, diff it across PRs.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.tracer import Span, TraceEvent, Tracer, get_tracer, use_tracer
from repro.util.tables import format_table

__all__ = [
    "BenchResult",
    "WORKLOADS",
    "run_bench",
    "write_bench",
    "format_report",
    "format_reader_table",
]


@dataclass
class BenchResult:
    """One workload's wall/simulated budget, reduced from its trace."""

    name: str
    scale: str
    wall_s: float
    sim_s: float
    #: Simulated/wall seconds per budget line (see module docstring).
    breakdown: Dict[str, float]
    #: Instrumentation-point tallies (rounds, frames, Selects, ...).
    counts: Dict[str, int]
    #: Headline workload statistics, as a sanity anchor for the numbers.
    workload: Dict[str, object] = field(default_factory=dict)
    #: Engine provenance: which inventory engine produced the numbers and
    #: whether the C micro-kernel compiled on this machine — without it a
    #: BENCH_*.json trajectory across machines is uninterpretable.
    engine: Dict[str, object] = field(default_factory=dict)
    #: Per-reader attribution rows (site workloads only): one dict per
    #: ``site_reader`` span, in span order, with the reader's wall share.
    readers: List[Dict[str, object]] = field(default_factory=list)

    @property
    def slots_per_wall_s(self) -> float:
        """Simulated slots per wall-clock second: the headline throughput."""
        if self.wall_s <= 0.0:
            return 0.0
        return self.counts.get("slots", 0) / self.wall_s

    @property
    def startup_cpu_share(self) -> float:
        """Fraction of round air time paid to per-round start-up.

        ``round_startup_s / (round_startup_s + slot_s)``: the share of every
        inventory round's simulated span that is fixed orchestration cost
        (``tau0``) rather than contended slots.  A change that silently makes
        rounds shorter and more numerous — more orchestration per slot of
        useful air time — moves this up even when raw throughput looks fine,
        which is why the bench-compare gate watches it alongside
        ``slots_per_wall_s``.
        """
        startup = self.breakdown.get("round_startup_s", 0.0)
        total = startup + self.breakdown.get("slot_s", 0.0)
        if total <= 0.0:
            return 0.0
        return startup / total

    def to_dict(self) -> Dict[str, object]:
        """Stable-shape JSON export (wall timings vary run to run).

        The ``readers`` key appears only for workloads that traced
        ``site_reader`` spans, so the non-site ``BENCH_*.json`` files keep
        their historical shape byte for byte.
        """
        payload = {
            "name": self.name,
            "scale": self.scale,
            "wall_s": round(self.wall_s, 6),
            "sim_s": round(self.sim_s, 9),
            "slots_per_wall_s": round(self.slots_per_wall_s, 1),
            "startup_cpu_share": round(self.startup_cpu_share, 6),
            "breakdown": {k: round(v, 9) for k, v in sorted(self.breakdown.items())},
            "counts": dict(sorted(self.counts.items())),
            "workload": self.workload,
            "engine": dict(sorted(self.engine.items())),
        }
        if self.readers:
            payload["readers"] = self.readers
        return payload


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _fig02_workload(scale: str) -> Dict[str, object]:
    """The Fig 2 IRR-vs-population sweep (pure inventory, no Tagwatch)."""
    from repro.experiments import fig02_irr

    if scale == "smoke":
        result = fig02_irr.run(
            tag_counts=(1, 5, 10, 20), initial_qs=(4,), repeats=4
        )
    else:
        result = fig02_irr.run()
    return {
        "drop_fraction": round(result.drop_fraction, 6),
        "tau0_ms": round(result.fitted.tau0_s * 1e3, 3),
        "tau_bar_ms": round(result.fitted.tau_bar_s * 1e3, 4),
        "n_settings": len(result.tag_counts) * len(result.curves),
    }


def _fig18_workload(scale: str) -> Dict[str, object]:
    """The Fig 18 end-to-end gain sweep (full Tagwatch cycles)."""
    from repro.experiments import fig18_gain

    if scale == "smoke":
        result = fig18_gain.run(
            percents=(5.0, 20.0),
            populations=(40,),
            n_cycles=4,
            warmup_cycles=1,
            phase2_duration_s=1.0,
        )
    else:
        result = fig18_gain.run()
    return {
        "median_gain_at_5pct": round(result.median_gain(5.0, "greedy"), 4),
        "n_samples": len(result.samples),
    }


def _soak_workload(scale: str) -> Dict[str, object]:
    """A chaos soak under the supervised runtime (recovery overhead)."""
    from repro.experiments import soak

    if scale == "smoke":
        config = soak.SoakConfig(
            n_cycles=120,
            seed=5,
            crash_every=30,
            kill_every=60,
            corrupt_every=50,
            jam_every=40,
            blackout_every=40,
        )
    else:
        config = soak.SoakConfig(seed=5)
    report = soak.run(config)
    return {
        "n_cycles": report.n_cycles,
        "n_crashes_fired": report.n_crashes_fired,
        "n_restarts": report.n_restarts,
        "n_checkpoints": report.n_checkpoints,
        "n_violations": len(report.violations),
    }


def _site_workload(scale: str) -> Dict[str, object]:
    """The multi-reader site simulation, at three tiers.

    ``smoke``/``paper`` run the redundancy sweep (overlapping ring sites).
    ``large`` is the warehouse tier the scale-out stack exists for: one
    24-reader aisle over 10k tags, simulated through the visibility-culled
    shards and the columnar fusion — the workload the committed
    ``BENCH_site.json`` tracks under its ``tiers`` key.
    """
    if scale == "large":
        from repro.site.channels import ChannelCoordinator
        from repro.site.site import SiteConfig, simulate_site
        from repro.site.topology import line_site

        config = SiteConfig(
            topology=line_site(24, 10_000),
            seed=7,
            duration_s=2.0,
            base_read_loss=0.2,
            coordinator=ChannelCoordinator(n_channels=16),
        )
        run = simulate_site(config)
        return {
            "n_readers": run.n_readers,
            "n_tags": config.topology.n_tags,
            "duration_s": round(config.duration_s, 6),
            "aggregate_reports": run.aggregate_reports,
            "missed_rate": round(run.missed_rate, 6),
            "mean_reader_reports": round(run.mean_reader_reports, 3),
        }
    from repro.experiments import fig_redundancy

    if scale == "smoke":
        result = fig_redundancy.run()
    else:
        result = fig_redundancy.run(
            overlaps=(1, 2, 4, 8), n_tags=480, duration_s=1.0
        )
    worst = result.points[0]
    best = result.points[-1]
    return {
        "overlaps": [p.n_readers for p in result.points],
        "missed_rate_single": round(worst.missed_rate, 6),
        "missed_rate_full": round(best.missed_rate, 6),
        "per_reader_irr_hz_full": round(best.per_reader_irr_hz, 3),
        "monotone_reliability": result.monotone_reliability,
        "monotone_throughput_cost": result.monotone_throughput_cost,
    }


WORKLOADS: Dict[str, Callable[[str], Dict[str, object]]] = {
    "fig02": _fig02_workload,
    "fig18": _fig18_workload,
    "site": _site_workload,
    "soak": _soak_workload,
}


# ----------------------------------------------------------------------
# Trace reduction
# ----------------------------------------------------------------------
def _analyze(records: Sequence[object]) -> Dict[str, object]:
    breakdown: Dict[str, float] = {
        "slot_s": 0.0,
        "round_startup_s": 0.0,
        "select_extra_s": 0.0,
        "phase1_s": 0.0,
        "phase2_s": 0.0,
        "warmup_s": 0.0,
        "scheduler_cpu_s": 0.0,
        "assessment_cpu_s": 0.0,
        "checkpoint_cpu_s": 0.0,
    }
    counts: Dict[str, int] = {
        "spans": 0,
        "events": 0,
        "rounds": 0,
        "frames": 0,
        "slots": 0,
        "cycles": 0,
        "selects": 0,
        "setcover_iterations": 0,
        "gmm_classifications": 0,
        "client_retries": 0,
        "checkpoint_writes": 0,
        "checkpoint_loads": 0,
        "watchdog_fires": 0,
        "escalations": 0,
        "restarts": 0,
        "session_restores": 0,
    }
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    frames_from_rounds = 0
    frame_spans = 0
    readers: List[Dict[str, object]] = []
    # Spans indexed by id so the event pass below can walk parent chains.
    # Records arrive in completion order (children close before parents), so
    # an event's enclosing spans may appear *after* it — hence two passes.
    span_by_id: Dict[int, Span] = {
        r.span_id: r for r in records if isinstance(r, Span)
    }
    for record in records:
        if isinstance(record, Span):
            counts["spans"] += 1
            t_min = record.start_s if t_min is None else min(t_min, record.start_s)
            t_max = record.end_s if t_max is None else max(t_max, record.end_s)
            if record.name == "round":
                counts["rounds"] += 1
                counts["slots"] += int(record.args.get("n_slots", 0))
                frames_from_rounds += int(record.args.get("n_frames", 0))
                # Clamp: a round truncated by ``max_duration_s`` can report
                # a nominal start-up longer than the span it actually got;
                # without the clamp the budget lines would sum past the
                # trace's simulated extent (double counting the cut tail).
                startup = min(
                    float(record.args.get("startup_s", 0.0)),
                    max(0.0, record.duration_s),
                )
                breakdown["round_startup_s"] += startup
                breakdown["slot_s"] += max(0.0, record.duration_s - startup)
            elif record.name == "frame":
                frame_spans += 1
            elif record.name == "cycle":
                counts["cycles"] += 1
            elif record.name == "site_reader":
                # One reader's whole simulated interval is the site layer's
                # cycle equivalent; before this attribution the site
                # workload reported ``cycles: 0`` as if nothing cycled.
                counts["cycles"] += 1
                readers.append(
                    {
                        "reader": int(record.args.get("reader", -1)),
                        "n_tags": int(record.args.get("n_tags", 0)),
                        "n_rounds": int(record.args.get("n_rounds", 0)),
                        "n_reports": int(record.args.get("n_reports", 0)),
                        "sim_s": round(record.duration_s, 9),
                        "wall_s": round(record.wall_duration_s, 6),
                    }
                )
            elif record.name == "phase1":
                breakdown["phase1_s"] += record.duration_s
            elif record.name == "phase2":
                breakdown["phase2_s"] += record.duration_s
            elif record.name == "warmup":
                breakdown["warmup_s"] += record.duration_s
            elif record.name == "schedule":
                breakdown["scheduler_cpu_s"] += record.wall_duration_s
            elif record.name == "assess":
                breakdown["assessment_cpu_s"] += record.wall_duration_s
            elif record.name == "checkpoint":
                breakdown["checkpoint_cpu_s"] += record.wall_duration_s
        elif isinstance(record, TraceEvent):
            counts["events"] += 1
            if record.name == "select":
                counts["selects"] += 1
                # A select event fired *inside* a round span sits in the
                # round's start-up window, which the span accounting above
                # already covers; adding its cost again would double count.
                # The reader emits selects outside the engine's round span
                # (extra Selects precede the round), so only foreign or
                # legacy traces hit this exclusion.
                inside_round = False
                parent_id = record.parent_id
                while parent_id:
                    parent = span_by_id.get(parent_id)
                    if parent is None:
                        break
                    if parent.name == "round":
                        inside_round = True
                        break
                    parent_id = parent.parent_id
                if not inside_round:
                    breakdown["select_extra_s"] += float(
                        record.args.get("extra_cost_s", 0.0)
                    )
            elif record.name == "setcover.iteration":
                counts["setcover_iterations"] += 1
            elif record.name == "gmm.classify":
                counts["gmm_classifications"] += 1
            elif record.name == "client.retry":
                counts["client_retries"] += 1
            elif record.name == "checkpoint.write":
                counts["checkpoint_writes"] += 1
            elif record.name == "checkpoint.load":
                counts["checkpoint_loads"] += 1
            elif record.name == "watchdog.fire":
                counts["watchdog_fires"] += 1
            elif record.name == "supervisor.escalate":
                counts["escalations"] += 1
            elif record.name == "supervisor.restart":
                counts["restarts"] += 1
            elif record.name in (
                "client.session_restore",
                "client.session_recover",
            ):
                counts["session_restores"] += 1
    # Round spans carry their frame count since traces may omit per-frame
    # spans (Tracer(detail="round")); fall back to counting frame spans for
    # traces recorded before that argument existed.
    counts["frames"] = max(frames_from_rounds, frame_spans)
    sim_s = 0.0 if t_min is None or t_max is None else t_max - t_min
    return {
        "breakdown": breakdown,
        "counts": counts,
        "sim_s": sim_s,
        "readers": readers,
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _engine_provenance(flight: bool) -> Dict[str, object]:
    """Which inventory engine settled the rounds, and whether the C kernel
    compiled: without the kernel every round runs on the slot walk."""
    from repro.gen2 import _ckernel

    compiled = _ckernel.load_kernel() is not None
    return {
        "inventory_engine": "calendar" if compiled else "reference",
        "ckernel_compiled": compiled,
        "flight_recorder": flight,
    }


def run_bench(
    name: str,
    scale: str = "smoke",
    tracer: Optional[Tracer] = None,
    warmup: int = 0,
    repeats: int = 1,
    flight: bool = False,
    flight_capacity: int = 8,
) -> BenchResult:
    """Run one named workload under tracing; reduce its trace to a budget.

    ``scale`` is ``smoke`` (seconds), ``paper`` (the benchmark-scale run)
    or ``large`` — the warehouse tier.  Only the site workload defines a
    distinct large tier (24 readers × 10k tags); the other workloads treat
    ``large`` as ``paper``.

    When the caller already installed an ambient tracer (``--trace-out``),
    the workload's records are appended there and analysed in place, so one
    trace file can carry a whole bench session.

    ``warmup`` extra executions run untimed and untraced first (imports,
    allocator, and simulator caches settle), and ``repeats`` timed
    executions follow with ``wall_s`` taken as the fastest — standard
    benchmarking hygiene so the committed baselines track the code, not the
    machine's mood.  Workloads are deterministic, so every repeat produces
    identical simulated results; only the wall clock varies.

    ``flight=True`` traces into a bounded
    :class:`~repro.obs.health.FlightRecorder` instead — the production
    health configuration — with evicted records collected on the side so
    the analysis still covers the whole run.  The bench-compare gate runs
    fig18 both ways against the same baseline, which is what keeps the
    recorder's overhead within the regression allowance.
    """
    workload_fn = WORKLOADS.get(name)
    if workload_fn is None:
        raise ValueError(
            f"unknown bench workload {name!r}; known: {sorted(WORKLOADS)}"
        )
    if scale not in ("smoke", "paper", "large"):
        raise ValueError(f"unknown bench scale {scale!r}")
    if warmup < 0 or repeats < 1:
        raise ValueError("warmup must be >= 0 and repeats >= 1")
    if flight and tracer is not None:
        raise ValueError("flight mode builds its own recorder")
    if not flight and tracer is None:
        ambient = get_tracer()
        # A private tracer only feeds _analyze, which reads aggregate round
        # args; skipping per-frame spans keeps tracing overhead out of the
        # measurement.
        tracer = ambient if ambient.enabled else Tracer(detail="round")
    for _ in range(warmup):
        with use_tracer(Tracer(detail="round")):
            workload_fn(scale)
    wall_s: Optional[float] = None
    for _ in range(repeats):
        if flight:
            from repro.obs.health import FlightRecorder

            # A fresh recorder per repeat: eviction rewrites ``records``
            # in place, so the start-index bookkeeping of the shared-trace
            # path cannot apply.
            evicted: List[object] = []
            tracer = FlightRecorder(
                capacity_cycles=flight_capacity,
                detail="round",
                on_evict=evicted.extend,
            )
        start_index = len(tracer.records)
        wall_start = time.perf_counter()
        with use_tracer(tracer):
            workload = workload_fn(scale)
        elapsed = time.perf_counter() - wall_start
        wall_s = elapsed if wall_s is None else min(wall_s, elapsed)
        if flight:
            analysis = _analyze(evicted + tracer.records)
        else:
            analysis = _analyze(tracer.records[start_index:])
    return BenchResult(
        name=name,
        scale=scale,
        wall_s=float(wall_s),
        sim_s=float(analysis["sim_s"]),
        breakdown=analysis["breakdown"],
        counts=analysis["counts"],
        workload=workload,
        engine=_engine_provenance(flight),
        readers=analysis["readers"],
    )


def write_bench(result: BenchResult, out_dir: str = ".") -> str:
    """Write ``BENCH_<name>.json``; returns the path.

    One file carries one workload across *all* its benched tiers: the
    ``smoke`` result is the top-level payload (what the default
    bench-compare gate reads), and any other scale lands under
    ``tiers[<scale>]``.  Rewriting one tier preserves the others, so
    ``make bench-refresh`` (smoke) never discards the committed ``large``
    tier and a large-tier refresh never perturbs the smoke baseline.
    """
    path = os.path.join(out_dir, f"BENCH_{result.name}.json")
    existing: Optional[Dict[str, object]] = None
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
        except (OSError, ValueError):
            existing = None
    payload = result.to_dict()
    if existing is not None:
        existing_scale = str(existing.get("scale", "smoke"))
        if result.scale == existing_scale:
            # Same tier as the committed top level: replace it, keep tiers.
            if "tiers" in existing:
                payload["tiers"] = existing["tiers"]
        elif result.scale == "smoke":
            # Smoke always holds the top level (the default gate's view);
            # demote whatever non-smoke result was there into its tier.
            tiers = dict(existing.get("tiers", {}))
            existing.pop("tiers", None)
            tiers[existing_scale] = existing
            payload["tiers"] = tiers
        else:
            # A secondary tier: slot it under the preserved top level.
            tiers = dict(existing.get("tiers", {}))
            tiers[result.scale] = payload
            payload = existing
            payload["tiers"] = tiers
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_report(results: Sequence[BenchResult]) -> str:
    """One table over all workloads: wall, sim, and the budget lines."""
    headers = [
        "workload",
        "wall s",
        "sim s",
        "slot s",
        "startup s",
        "select s",
        "sched cpu s",
        "assess cpu s",
        "rounds",
        "cycles",
    ]
    rows: List[List[object]] = []
    for r in results:
        rows.append(
            [
                f"{r.name}/{r.scale}",
                round(r.wall_s, 2),
                round(r.sim_s, 2),
                round(r.breakdown["slot_s"], 3),
                round(r.breakdown["round_startup_s"], 3),
                round(r.breakdown["select_extra_s"], 3),
                round(r.breakdown["scheduler_cpu_s"], 4),
                round(r.breakdown["assessment_cpu_s"], 4),
                r.counts["rounds"],
                r.counts["cycles"],
            ]
        )
    return format_table(
        headers, rows, title="Bench: per-phase time budget (see docs/observability.md)"
    )


def format_reader_table(result: BenchResult) -> str:
    """Per-reader wall-time attribution for a site workload's last repeat.

    One row per ``site_reader`` span, in span (task) order: how many tags
    the culled shard actually simulated, what the reader produced, and the
    wall seconds its shard cost — the table that shows where a slow site
    run spent its time, reader by reader.
    """
    headers = [
        "reader", "shard tags", "rounds", "reports", "sim s", "wall s",
        "wall %",
    ]
    total_wall = sum(float(row["wall_s"]) for row in result.readers)
    rows: List[List[object]] = []
    for row in result.readers:
        wall = float(row["wall_s"])
        rows.append(
            [
                row["reader"],
                row["n_tags"],
                row["n_rounds"],
                row["n_reports"],
                round(float(row["sim_s"]), 3),
                round(wall, 4),
                round(100.0 * wall / total_wall, 1) if total_wall else 0.0,
            ]
        )
    return format_table(
        headers,
        rows,
        title=(
            f"{result.name}/{result.scale}: per-reader wall attribution "
            f"({len(rows)} reader shard(s), {round(total_wall, 3)} s total)"
        ),
    )
