"""Fig 18 / Section 7.3: overall IRR gain vs percentage of mobile tags.

For each mobile-tag percentage and total population size, a full Tagwatch
deployment runs for several cycles; the mobile tags' IRRs are compared with
the IRRs the *same* deployment yields under plain read-all.  The naive
rate-adaptive baseline (EPCs as bitmasks) runs the same protocol with its
selection method swapped.

Paper findings to reproduce: Tagwatch's median gain ~3.2x at 5% mobile,
~1.9x at 10%, approaching 1 (~1.5x mean) at 20%; the naive baseline reaches
~2.6x / ~1.5x and drops to a *median of 0.8x* (worse than read-all) at 20%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


from repro.core import TagwatchConfig
from repro.experiments.harness import build_lab, read_all_irr
from repro.experiments.parallel import parallel_map
from repro.util.stats import percentile
from repro.util.tables import format_table


@dataclass
class GainSample:
    """Gain of one mobile tag in one (percent, n) deployment."""

    percent_mobile: float
    n_tags: int
    method: str
    gain: float


@dataclass
class Fig18Result:
    samples: List[GainSample]
    percents: List[float]
    populations: List[int]

    def gains(self, percent: float, method: str) -> List[float]:
        """All per-tag gain samples for one (percent, method)."""
        return [
            s.gain
            for s in self.samples
            if s.percent_mobile == percent and s.method == method
        ]

    def median_gain(self, percent: float, method: str) -> float:
        """Fig 18's headline statistic."""
        return percentile(self.gains(percent, method), 50)

    def p90_gain(self, percent: float, method: str) -> float:
        """The top-decile gain the paper quotes alongside medians."""
        return percentile(self.gains(percent, method), 90)


def _deployment_gains(
    percent: float,
    n_tags: int,
    method: str,
    n_cycles: int,
    warmup_cycles: int,
    phase2_duration_s: float,
    seed: int,
    warmup_read_all_s: Optional[float] = None,
) -> List[GainSample]:
    n_mobile = max(1, round(n_tags * percent / 100.0))

    # Rate-adaptive run, on the paper's partitioned deployment (each
    # antenna covers its own cluster of tags).
    setup = build_lab(
        n_tags=n_tags, n_mobile=n_mobile, seed=seed, partition=True
    )
    # The fallback switch is disabled: Fig 18 measures the *intrinsic*
    # gain of each adaptive scheme even where it loses (>20% mobile).
    config = TagwatchConfig(
        phase2_duration_s=phase2_duration_s,
        selection_method=method,
        fallback_fraction=1.0,
    )
    tagwatch = setup.tagwatch(config)
    # Method-independent learning warm-up (plain read-all), so both
    # selection schemes start measuring from mature immobility models.
    # The per-tag read rate under read-all scales as 1/C(n/4), so the
    # warm-up duration must grow with the population for every tag to
    # accumulate the ~55 readings its immobility model needs to mature.
    if warmup_read_all_s is None:
        warmup_read_all_s = max(15.0, 0.3 * n_tags)
    tagwatch.warm_up(warmup_read_all_s)
    results = tagwatch.run(n_cycles)
    measured = results[warmup_cycles:]
    t0 = measured[0].phase1_start_s
    t1 = measured[-1].phase2_end_s
    adaptive_irr = {
        value: tagwatch.history.irr(value, t0, t1).irr_hz
        for value in setup.mobile_epc_values
    }

    # Read-all baseline on an identical fresh deployment, same duration.
    baseline = build_lab(
        n_tags=n_tags, n_mobile=n_mobile, seed=seed, partition=True
    )
    baseline_irr, _ = read_all_irr(baseline, duration_s=t1 - t0)

    samples = []
    for value in setup.mobile_epc_values:
        base = baseline_irr.get(value, 0.0)
        if base <= 0:
            continue  # the baseline never saw this tag; no defined gain
        samples.append(
            GainSample(
                percent_mobile=percent,
                n_tags=n_tags,
                method=method,
                gain=adaptive_irr[value] / base,
            )
        )
    return samples


def run(
    percents: Sequence[float] = (5.0, 10.0, 15.0, 20.0),
    populations: Sequence[int] = (50, 100, 200),
    methods: Sequence[str] = ("greedy", "naive"),
    n_cycles: int = 6,
    warmup_cycles: int = 2,
    phase2_duration_s: float = 2.0,
    seed: int = 29,
    workers: Optional[int] = None,
) -> Fig18Result:
    """Sweep mobile percentage x population x selection method.

    The paper varies n over {50..400} with 1000 cycles per setting and a 5 s
    Phase II; defaults here shrink cycle counts and Phase II to keep the
    simulation tractable while preserving every ratio (warm-up cycles are
    excluded from measurement in both runs).  Each deployment is seeded by
    its own (percent, n) pair, so ``workers > 1`` distributes deployments
    over a process pool without changing the samples.
    """
    tasks = [
        (
            percent,
            n_tags,
            method,
            n_cycles,
            warmup_cycles,
            phase2_duration_s,
            seed + int(percent * 100) + n_tags,
        )
        for percent in percents
        for n_tags in populations
        for method in methods
    ]
    samples: List[GainSample] = []
    for batch in parallel_map(_deployment_gains, tasks, workers=workers):
        samples.extend(batch)
    return Fig18Result(
        samples=samples,
        percents=list(percents),
        populations=list(populations),
    )


def format_report(result: Fig18Result) -> str:
    """Render the paper-style table for this figure."""
    headers = [
        "% mobile",
        "tagwatch median",
        "tagwatch p90",
        "naive median",
        "naive p90",
    ]
    rows = []
    for percent in result.percents:
        rows.append(
            [
                percent,
                result.median_gain(percent, "greedy"),
                result.p90_gain(percent, "greedy"),
                result.median_gain(percent, "naive"),
                result.p90_gain(percent, "naive"),
            ]
        )
    title = (
        "Fig 18 — IRR gain vs % mobile "
        "(paper medians: Tagwatch 3.2/1.9/~1.5 at 5/10/20%; naive 2.6/1.5/0.8)"
    )
    return format_table(headers, rows, precision=2, title=title)
