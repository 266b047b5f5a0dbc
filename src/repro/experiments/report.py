"""Every reproducible figure in one table, and the one-shot report.

:data:`FIGURES` is the one place a figure's run is written down: its
driver module, the keyword arguments of its smoke run (seconds) and of its
paper-scale run (the configuration EXPERIMENTS.md records), and whether the
driver fans out over a process pool.  ``python -m repro figures``,
``figure`` and ``reproduce`` and the paper-claim tests (``tests/paper/``)
all read it.  Drivers are imported by id when a figure runs, so importing
this module loads none of them.

``python -m repro reproduce --out report.md`` regenerates the measured side
of EXPERIMENTS.md on the current code: each figure's driver runs (at smoke
or paper scale) and its paper-style table is embedded, so a reader can diff
a fresh run against the committed record.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Dict, List, Optional

SCALES = ("smoke", "paper")


@dataclass(frozen=True)
class Figure:
    """One figure: which driver function runs it, and at what size.

    ``smoke`` and ``paper`` are the driver's keyword arguments at each
    scale; an argument left out takes the driver's default.  ``workers``
    marks a driver that takes a ``workers`` pool size.
    """

    title: str
    module: str
    smoke: Dict[str, Any] = field(default_factory=dict)
    paper: Dict[str, Any] = field(default_factory=dict)
    workers: bool = False
    runner: str = "run"
    formatter: str = "format_report"

    @property
    def driver(self) -> ModuleType:
        """The driver module, imported on first use."""
        return importlib.import_module(f"repro.experiments.{self.module}")

    def kwargs(
        self, scale: str, workers: Optional[int] = None
    ) -> Dict[str, Any]:
        """The driver's keyword arguments at ``scale``."""
        if scale not in SCALES:
            raise ValueError("scale must be 'smoke' or 'paper'")
        kwargs = dict(self.smoke if scale == "smoke" else self.paper)
        if self.workers:
            kwargs["workers"] = workers
        return kwargs

    def run(self, scale: str, workers: Optional[int] = None) -> Any:
        """Run the driver at ``scale`` and return its result object."""
        kwargs = self.kwargs(scale, workers)
        return getattr(self.driver, self.runner)(**kwargs)

    def format(self, result: Any) -> str:
        """The driver's paper-style table for ``result``."""
        return getattr(self.driver, self.formatter)(result)

    def render(self, scale: str, workers: Optional[int] = None) -> str:
        """Run the driver at ``scale`` and return its paper-style table."""
        return self.format(self.run(scale, workers))


FIGURES: Dict[str, Figure] = {
    "fig1": Figure(
        "Fig 1 — tracking accuracy vs stationary company",
        "fig01_tracking",
        smoke={"stationary_counts": (0, 14), "duration_s": 4.0},
    ),
    "fig2": Figure(
        "Fig 2 — IRR vs number of tags, model vs measured",
        "fig02_irr",
        smoke={
            "tag_counts": (1, 5, 10, 20, 40),
            "initial_qs": (4,),
            "repeats": 8,
        },
        workers=True,
    ),
    "fig3": Figure(
        "Fig 3/4 — TrackPoint warehouse trace statistics",
        "fig03_trace",
        paper={"seed": 13},
    ),
    "fig8": Figure(
        "Fig 8 — phase multi-modality of a stationary tag",
        "fig08_gmm",
        smoke={"duration_s": 30.0},
    ),
    "fig12": Figure(
        "Fig 12 — motion-detector ROC",
        "fig12_roc",
        smoke={
            "n_stationary": 10,
            "n_people": 2,
            "monitor_duration_s": 40.0,
            "mobile_duration_s": 15.0,
        },
    ),
    "fig13": Figure(
        "Fig 13 — detection sensitivity vs displacement",
        "fig13_sensitivity",
        smoke={"trials": 8, "settle_s": 6.0},
    ),
    "fig14": Figure(
        "Fig 14 — immobility-model learning curve",
        "fig14_learning",
        smoke={"duration_s": 20.0},
    ),
    "fig15": Figure(
        "Fig 15 — schedule feasibility, 2/40 targets",
        "fig15_feasibility",
        smoke={"n_targets": 2, "duration_s": 4.0},
        paper={"n_targets": 2},
    ),
    "fig16": Figure(
        "Fig 16 — schedule feasibility, 5/40 targets",
        "fig15_feasibility",
        smoke={"n_targets": 5, "duration_s": 4.0},
        paper={"n_targets": 5},
    ),
    "fig17": Figure(
        "Fig 17 — scheduling overhead CDF",
        "fig17_cost",
        smoke={
            "n_tags": 30,
            "n_mobile": 2,
            "n_cycles": 14,
            "warmup_cycles": 6,
            "phase2_duration_s": 0.6,
        },
    ),
    "fig18": Figure(
        "Fig 18 — IRR gain vs percentage of mobile tags",
        "fig18_gain",
        smoke={
            "percents": (5.0, 20.0),
            "populations": (40,),
            "n_cycles": 5,
            "warmup_cycles": 1,
            "phase2_duration_s": 1.0,
        },
        paper={"phase2_duration_s": 1.5},
        workers=True,
    ),
    "redundancy": Figure(
        "Beyond the paper — multi-reader redundancy vs throughput",
        "fig_redundancy",
        paper={"overlaps": (1, 2, 4, 8), "n_tags": 480, "duration_s": 1.0},
        workers=True,
    ),
    "latency": Figure(
        "Beyond the paper — detection latency vs Phase II length",
        "latency",
        smoke={"phase2_durations_s": (0.5, 2.0), "n_trials": 3},
        paper={"phase2_durations_s": (0.5, 2.0), "n_trials": 5},
    ),
    "channel-keying": Figure(
        "Ablation — immobility models keyed by (antenna, channel)",
        "ablations",
        runner="run_channel_keying",
        formatter="format_channel_keying",
    ),
    "vote-rule": Figure(
        "Ablation — per-tag vote aggregation",
        "ablations",
        runner="run_vote_rule",
        formatter="format_vote_rule",
    ),
    "phase2-sweep": Figure(
        "Ablation — Phase II length vs transition latency",
        "ablations",
        workers=True,
        runner="run_phase2_sweep",
        formatter="format_phase2_sweep",
    ),
}


@dataclass(frozen=True)
class SectionResult:
    """One figure's rendered report plus how long it took."""

    figure_id: str
    title: str
    body: str
    wall_s: float


def run(
    scale: str = "smoke", only: Optional[List[str]] = None
) -> List[SectionResult]:
    """Run the selected figure drivers and collect their reports."""
    selected = [
        figure_id for figure_id in FIGURES if only is None or figure_id in only
    ]
    if not selected:
        raise ValueError(f"no figures matched {only!r}")
    results: List[SectionResult] = []
    for figure_id in selected:
        figure = FIGURES[figure_id]
        start = time.perf_counter()
        body = figure.render(scale)
        results.append(
            SectionResult(
                figure_id=figure_id,
                title=figure.title,
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
