"""Degradation curves: Tagwatch IRR and recovery cost vs injected faults.

Sweeps report-loss rates (optionally with burst erasures and a mid-run
disconnect) over an otherwise fixed seeded deployment and measures how the
two-phase engine degrades: completed cycles, target/overall IRR, fallback
and degradation fractions, and the client's retry/backoff spend.  The
companion of the paper's Fig 18 gain curve, but for adversity instead of
mobility — the numbers behind ``docs/faults.md``'s "graceful under
adversity" claim.

Every point is a fresh lab built from the same seed, so the only difference
between points is the fault plan itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import TagwatchConfig, TagwatchMonitor
from repro.experiments.harness import build_lab
from repro.experiments.parallel import parallel_map
from repro.faults import FaultPlan
from repro.util.tables import format_table


@dataclass(frozen=True)
class SweepPoint:
    """Measured behaviour at one fault intensity."""

    report_loss: float
    n_cycles: int
    n_degraded_cycles: int
    fallback_fraction: float
    mean_target_irr_hz: float
    mean_overall_irr_hz: float
    phase1_reads_per_cycle: float
    retries: int
    reconnects: int
    backoff_total_s: float
    dropped_reports: int

    def to_dict(self) -> Dict[str, float]:
        """JSON row for the exported degradation curve."""
        return {
            "report_loss": self.report_loss,
            "n_cycles": self.n_cycles,
            "n_degraded_cycles": self.n_degraded_cycles,
            "fallback_fraction": round(self.fallback_fraction, 9),
            "mean_target_irr_hz": round(self.mean_target_irr_hz, 9),
            "mean_overall_irr_hz": round(self.mean_overall_irr_hz, 9),
            "phase1_reads_per_cycle": round(self.phase1_reads_per_cycle, 9),
            "retries": self.retries,
            "reconnects": self.reconnects,
            "backoff_total_s": round(self.backoff_total_s, 9),
            "dropped_reports": self.dropped_reports,
        }


@dataclass(frozen=True)
class SweepResult:
    """One full loss-rate sweep."""

    points: Tuple[SweepPoint, ...]
    n_tags: int
    n_mobile: int
    n_cycles: int
    seed: int

    def to_dict(self) -> Dict[str, object]:
        """JSON export: run parameters plus every sweep point."""
        return {
            "n_tags": self.n_tags,
            "n_mobile": self.n_mobile,
            "n_cycles": self.n_cycles,
            "seed": self.seed,
            "points": [p.to_dict() for p in self.points],
        }


def run_point(
    report_loss: float,
    n_tags: int = 20,
    n_mobile: int = 1,
    n_cycles: int = 4,
    warmup_s: float = 8.0,
    phase2_duration_s: float = 1.0,
    seed: int = 11,
    disconnect_at_s: Sequence[float] = (),
) -> SweepPoint:
    """Run one faulted deployment and fold its behaviour into a point."""
    plan = FaultPlan(
        report_loss=report_loss, disconnect_at_s=tuple(disconnect_at_s)
    )
    setup = build_lab(
        n_tags=n_tags,
        n_mobile=n_mobile,
        seed=seed,
        partition=True,
        fault_plan=plan,
    )
    tagwatch = setup.tagwatch(
        TagwatchConfig(
            phase2_duration_s=phase2_duration_s,
            min_phase1_fraction=0.5,
            population_grace_cycles=2,
        )
    )
    tagwatch.warm_up(warmup_s)
    monitor = TagwatchMonitor(window=max(n_cycles, 1))
    results = []
    for _ in range(n_cycles):
        result = tagwatch.run_cycle()
        monitor.record(result)
        results.append(result)

    irr = monitor.irr_by_tag()
    mobile = setup.mobile_epc_values
    target_irrs = [irr.get(v, 0.0) for v in sorted(mobile)]
    overall_irrs = [irr.get(e.value, 0.0) for e in setup.epcs]
    metrics = setup.metrics
    assert metrics is not None
    dropped = (
        metrics.value("faults.dropped_loss", 0)
        + metrics.value("faults.dropped_burst", 0)
        + metrics.value("faults.dropped_blackout", 0)
        + metrics.value("faults.reports_lost_disconnect", 0)
    )
    backoff_s = 0.0
    if "client.backoff_s" in metrics.names():
        backoff_s = metrics.histogram("client.backoff_s").total
    return SweepPoint(
        report_loss=report_loss,
        n_cycles=len(results),
        n_degraded_cycles=sum(1 for r in results if r.degraded),
        fallback_fraction=float(np.mean([r.fallback for r in results])),
        mean_target_irr_hz=float(np.mean(target_irrs)) if target_irrs else 0.0,
        mean_overall_irr_hz=float(np.mean(overall_irrs)),
        phase1_reads_per_cycle=float(
            np.mean([len(r.phase1_observations) for r in results])
        ),
        retries=int(metrics.value("client.retries", 0)),
        reconnects=int(metrics.value("client.reconnects", 0)),
        backoff_total_s=backoff_s,
        dropped_reports=int(dropped),
    )


def run(
    loss_rates: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5),
    n_tags: int = 20,
    n_mobile: int = 1,
    n_cycles: int = 4,
    warmup_s: float = 8.0,
    phase2_duration_s: float = 1.0,
    seed: int = 11,
    disconnect_at_s: Sequence[float] = (),
    workers: Optional[int] = None,
) -> SweepResult:
    """Sweep the loss axis; same seed at every point.

    Points are independent fresh labs, so ``workers > 1`` runs them over a
    process pool with identical results.
    """
    if n_cycles < 1:
        raise ValueError("need at least one cycle")
    tasks = [
        (
            rate,
            n_tags,
            n_mobile,
            n_cycles,
            warmup_s,
            phase2_duration_s,
            seed,
            tuple(disconnect_at_s),
        )
        for rate in loss_rates
    ]
    points = parallel_map(run_point, tasks, workers=workers)
    return SweepResult(
        points=tuple(points),
        n_tags=n_tags,
        n_mobile=n_mobile,
        n_cycles=n_cycles,
        seed=seed,
    )


def format_report(result: SweepResult) -> str:
    """The sweep as a console table (loss axis down, behaviour across)."""
    rows: List[List[object]] = []
    for p in result.points:
        rows.append(
            [
                f"{p.report_loss * 100:.0f}%",
                f"{p.mean_target_irr_hz:.2f}",
                f"{p.mean_overall_irr_hz:.2f}",
                f"{p.phase1_reads_per_cycle:.1f}",
                f"{p.fallback_fraction:.2f}",
                p.n_degraded_cycles,
                p.retries,
                int(p.dropped_reports),
            ]
        )
    return format_table(
        [
            "loss",
            "target IRR",
            "overall IRR",
            "ph1 reads",
            "fallback",
            "degraded",
            "retries",
            "dropped",
        ],
        rows,
        title=(
            f"Degradation sweep: {result.n_tags} tags, "
            f"{result.n_mobile} mobile, {result.n_cycles} cycles/point "
            f"(seed {result.seed})"
        ),
    )
