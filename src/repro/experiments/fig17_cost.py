"""Fig 17 / Section 7.2: scheduling overhead CDF.

The extra wall-clock Tagwatch spends between the last Phase I reading and
the first Phase II reading — motion assessment plus bitmask selection — is
measured per cycle and reported as a CDF.

Paper findings to reproduce: the overhead is negligible against the 5 s
cycle (<4 ms in 50% of cycles, <6 ms in 90% on their machine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core import TagwatchConfig
from repro.experiments.harness import build_lab
from repro.util.stats import cdf_points, percentile
from repro.util.tables import format_table


@dataclass
class Fig17Result:
    overheads_ms: List[float]
    assessment_ms: List[float]
    scheduling_ms: List[float]
    cycle_duration_s: float

    @property
    def p50_ms(self) -> float:
        return percentile(self.overheads_ms, 50)

    @property
    def p90_ms(self) -> float:
        return percentile(self.overheads_ms, 90)

    def cdf(self) -> List[Tuple[float, float]]:
        """CDF sample points of the per-cycle overhead."""
        return cdf_points(self.overheads_ms)


def run(
    n_tags: int = 60,
    n_mobile: int = 3,
    n_cycles: int = 40,
    warmup_cycles: int = 8,
    phase2_duration_s: float = 1.0,
    seed: int = 23,
) -> Fig17Result:
    """Run Tagwatch cycles and collect the per-cycle scheduling overhead.

    The paper sliced 50,000 cycles from a long deployment; the driver uses a
    shorter run (overheads are per-cycle wall-clock measurements, so the
    distribution stabilises quickly).
    """
    if n_cycles <= warmup_cycles:
        raise ValueError("need more cycles than warmup")
    setup = build_lab(n_tags=n_tags, n_mobile=n_mobile, seed=seed)
    tagwatch = setup.tagwatch(
        TagwatchConfig(phase2_duration_s=phase2_duration_s)
    )
    results = tagwatch.run(n_cycles)
    measured = results[warmup_cycles:]
    assessment = [r.assessment_wall_s * 1e3 for r in measured]
    scheduling = [r.scheduling_wall_s * 1e3 for r in measured]
    overheads = [a + s for a, s in zip(assessment, scheduling)]
    return Fig17Result(
        overheads_ms=overheads,
        assessment_ms=assessment,
        scheduling_ms=scheduling,
        cycle_duration_s=float(
            np.mean([r.cycle_duration_s for r in measured])
        ),
    )


def format_report(result: Fig17Result) -> str:
    """Render the paper-style table for this figure."""
    headers = ["CDF", "overhead (ms)"]
    rows = [[f"p{int(p * 100)}", v] for p, v in result.cdf()]
    title = (
        "Fig 17 — scheduling overhead per cycle "
        f"(p50={result.p50_ms:.1f} ms, p90={result.p90_ms:.1f} ms vs "
        f"{result.cycle_duration_s:.1f} s cycles; paper: <4 ms p50, <6 ms p90)"
    )
    return format_table(headers, rows, precision=2, title=title)
