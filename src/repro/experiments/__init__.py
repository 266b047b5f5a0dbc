"""Experiment drivers: one module per paper figure.

Each module exposes ``run(...) -> <Result>`` plus ``format_report(result)``.
:data:`repro.experiments.report.FIGURES` fixes each figure's smoke and
paper-scale arguments; the CLI, the tests (``tests/paper/`` at paper scale)
and the examples share these drivers.

Submodules load lazily (PEP 562): eagerly importing every figure driver
both slowed ``import repro.experiments`` down and created an import cycle —
``repro.site.site`` uses :mod:`repro.experiments.parallel` for sharding,
while :mod:`repro.experiments.fig_redundancy` drives ``repro.site.site`` —
which only resolves when neither package pulls the whole other one in at
import time.
"""

from __future__ import annotations

import importlib

__all__ = [
    "ablations",
    "fig01_tracking",
    "fig02_irr",
    "fig03_trace",
    "fig08_gmm",
    "fig12_roc",
    "fig13_sensitivity",
    "fig14_learning",
    "fig15_feasibility",
    "fig17_cost",
    "fig18_gain",
    "fig_redundancy",
    "latency",
    "parallel",
    "report",
    "site_soak",
    "soak",
]


def __getattr__(name: str):
    if name in __all__:
        module = importlib.import_module(f"repro.experiments.{name}")
        globals()[name] = module
        return module
    raise AttributeError(
        f"module 'repro.experiments' has no attribute {name!r}"
    )


def __dir__():
    return sorted(set(globals()) | set(__all__))
