"""One-shot reproduction report: every figure, one markdown document.

``python -m repro reproduce --out report.md`` regenerates the measured side
of EXPERIMENTS.md on the current code: each figure's driver runs (at smoke
or benchmark scale) and its paper-style table is embedded, so a reader can
diff a fresh run against the committed record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import (
    ablations,
    fig01_tracking,
    fig02_irr,
    fig03_trace,
    fig08_gmm,
    fig12_roc,
    fig13_sensitivity,
    fig14_learning,
    fig15_feasibility,
    fig17_cost,
    fig18_gain,
    latency,
)


@dataclass(frozen=True)
class SectionResult:
    """One figure's rendered report plus how long it took."""

    figure_id: str
    title: str
    body: str
    wall_s: float


def _sections(scale: str) -> List[Tuple[str, str, Callable[[], str]]]:
    """(figure id, title, runner) per section, at the requested scale."""
    smoke = scale == "smoke"

    def fig1() -> str:
        counts = (0, 14) if smoke else (0, 8, 14)
        return fig01_tracking.format_report(
            fig01_tracking.run(
                stationary_counts=counts,
                duration_s=4.0 if smoke else 6.0,
            )
        )

    def fig2() -> str:
        result = fig02_irr.run(
            tag_counts=(1, 5, 10, 20, 40) if smoke else
            (1, 2, 5, 10, 15, 20, 25, 30, 35, 40),
            initial_qs=(4,) if smoke else (4, 2, 6),
            repeats=8 if smoke else 20,
        )
        return fig02_irr.format_report(result)

    def fig3() -> str:
        return fig03_trace.format_report(fig03_trace.run())

    def fig8() -> str:
        return fig08_gmm.format_report(
            fig08_gmm.run(duration_s=30.0 if smoke else 60.0)
        )

    def fig12() -> str:
        result = fig12_roc.run(
            n_stationary=10 if smoke else 30,
            n_people=2 if smoke else 3,
            monitor_duration_s=40.0 if smoke else 120.0,
            mobile_duration_s=15.0 if smoke else 40.0,
        )
        return fig12_roc.format_report(result)

    def fig13() -> str:
        return fig13_sensitivity.format_report(
            fig13_sensitivity.run(
                trials=8 if smoke else 20,
                settle_s=6.0 if smoke else 8.0,
            )
        )

    def fig14() -> str:
        return fig14_learning.format_report(
            fig14_learning.run(duration_s=20.0 if smoke else 60.0)
        )

    def fig1516() -> str:
        duration = 4.0 if smoke else 10.0
        two = fig15_feasibility.run(n_targets=2, duration_s=duration)
        five = fig15_feasibility.run(n_targets=5, duration_s=duration)
        return (
            fig15_feasibility.format_report(two)
            + "\n\n"
            + fig15_feasibility.format_report(five)
        )

    def fig17() -> str:
        return fig17_cost.format_report(
            fig17_cost.run(
                n_tags=30 if smoke else 60,
                n_mobile=2 if smoke else 3,
                n_cycles=14 if smoke else 40,
                warmup_cycles=6 if smoke else 8,
                phase2_duration_s=0.6 if smoke else 1.0,
            )
        )

    def fig18() -> str:
        result = fig18_gain.run(
            percents=(5.0, 20.0) if smoke else (5.0, 10.0, 15.0, 20.0),
            populations=(40,) if smoke else (50, 100, 200),
            n_cycles=5 if smoke else 6,
            warmup_cycles=1 if smoke else 2,
            phase2_duration_s=1.0 if smoke else 1.5,
        )
        return fig18_gain.format_report(result)

    def extras() -> str:
        parts = [
            latency.format_report(
                latency.run(
                    phase2_durations_s=(0.5, 2.0),
                    n_trials=3 if smoke else 5,
                )
            )
        ]
        if not smoke:
            parts.append(
                ablations.format_channel_keying(
                    ablations.run_channel_keying()
                )
            )
        return "\n\n".join(parts)

    return [
        ("fig2", "Fig 2 — IRR vs population size", fig2),
        ("fig3", "Fig 3/4 — TrackPoint trace", fig3),
        ("fig8", "Fig 8 — phase multi-modality", fig8),
        ("fig12", "Fig 12 — detector ROC", fig12),
        ("fig13", "Fig 13 — detection sensitivity", fig13),
        ("fig14", "Fig 14 — learning curve", fig14),
        ("fig15", "Fig 15/16 — schedule feasibility", fig1516),
        ("fig17", "Fig 17 — scheduling overhead", fig17),
        ("fig18", "Fig 18 — IRR gain vs % mobile", fig18),
        ("fig1", "Fig 1 — tracking application", fig1),
        ("extras", "Beyond the paper — latency and ablations", extras),
    ]


def run(
    scale: str = "smoke", only: Optional[List[str]] = None
) -> List[SectionResult]:
    """Run the selected figure drivers and collect their reports."""
    if scale not in ("smoke", "paper"):
        raise ValueError("scale must be 'smoke' or 'paper'")
    sections = [
        section
        for section in _sections(scale)
        if only is None or section[0] in only
    ]
    if not sections:
        raise ValueError(f"no figures matched {only!r}")
    results: List[SectionResult] = []
    for figure_id, title, runner in sections:
        start = time.perf_counter()
        body = runner()
        results.append(
            SectionResult(
                figure_id=figure_id,
                title=title,
                body=body,
                wall_s=time.perf_counter() - start,
            )
        )
    return results


def to_markdown(results: List[SectionResult], scale: str) -> str:
    """Assemble the final document."""
    lines = [
        "# Reproduction report",
        "",
        f"Scale: `{scale}`.  Generated by `python -m repro reproduce`; "
        "compare against the committed EXPERIMENTS.md.",
        "",
    ]
    for section in results:
        lines.append(f"## {section.title}")
        lines.append("")
        lines.append("```")
        lines.append(section.body)
        lines.append("```")
        lines.append("")
        lines.append(f"_completed in {section.wall_s:.1f} s wall-clock_")
        lines.append("")
    return "\n".join(lines)
