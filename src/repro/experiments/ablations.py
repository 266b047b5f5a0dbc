"""Ablations of Tagwatch design choices (beyond the paper's figures).

Each driver isolates one decision DESIGN.md documents:

- :func:`run_channel_keying` — are per-channel immobility models needed
  under frequency hopping?  (Design decision 3: phase is reported against a
  per-channel LO reference.)
- :func:`run_vote_rule` — "any" vs "majority" aggregation of per-reading
  motion flags into a per-tag verdict.
- :func:`run_phase2_sweep` — Phase II length vs the trade-off the paper
  names in Section 6: longer Phase II boosts mobile IRR but delays
  state-transition detection (a tag that *stops* is over-read; one that
  *starts* goes unnoticed until the next Phase I).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core import MotionAssessor, TagwatchConfig
from repro.experiments.harness import build_lab
from repro.experiments.parallel import parallel_map
from repro.radio.constants import china_920_926
from repro.util.tables import format_table


# ---------------------------------------------------------------------------
# Channel keying under frequency hopping
# ---------------------------------------------------------------------------

@dataclass
class ChannelKeyingResult:
    fpr_keyed: float
    fpr_merged: float
    n_readings: int


def run_channel_keying(
    n_tags: int = 8,
    duration_s: float = 60.0,
    warmup_s: float = 40.0,
    seed: int = 47,
) -> ChannelKeyingResult:
    """Stationary tags under 16-channel hopping, assessed two ways.

    Without per-channel model keys, every frequency hop looks like a phase
    jump and stationary tags are flagged constantly.
    """
    fprs = {}
    n_readings = 0
    for keyed in (True, False):
        setup = build_lab(
            n_tags=n_tags,
            n_mobile=0,
            seed=seed,
            n_antennas=1,
            channel_plan=china_920_926(hop_dwell_s=0.2),
        )
        assessor = MotionAssessor(key_by_channel=keyed)
        warmup_obs, _ = setup.reader.run_duration(warmup_s)
        assessor.observe_all(warmup_obs)
        assessor.assess()
        test_obs, _ = setup.reader.run_duration(duration_s - warmup_s)
        flags = [not stationary for stationary in assessor.observe_all(test_obs)]
        fprs[keyed] = float(np.mean(flags))
        n_readings = len(flags)
    return ChannelKeyingResult(
        fpr_keyed=fprs[True], fpr_merged=fprs[False], n_readings=n_readings
    )


def format_channel_keying(result: ChannelKeyingResult) -> str:
    """Render the channel-keying ablation table."""
    rows = [
        ["per-(antenna, channel) models", result.fpr_keyed],
        ["per-antenna only (channels merged)", result.fpr_merged],
    ]
    return format_table(
        ["immobility model keying", "stationary-tag FPR"],
        rows,
        precision=3,
        title=(
            "Ablation — model keying under 16-channel hopping "
            f"({result.n_readings} test readings)"
        ),
    )


# ---------------------------------------------------------------------------
# Vote rule
# ---------------------------------------------------------------------------

@dataclass
class VoteRuleResult:
    rows: List[List[object]]  # rule, detection latency cycles, fp targets/cycle


def run_vote_rule(
    n_tags: int = 20,
    n_cycles: int = 6,
    seed: int = 53,
) -> VoteRuleResult:
    """Compare 'any' and 'majority' per-tag aggregation in a live loop."""
    rows: List[List[object]] = []
    for rule in ("any", "majority"):
        setup = build_lab(
            n_tags=n_tags, n_mobile=1, seed=seed, partition=True
        )
        tagwatch = setup.tagwatch(
            TagwatchConfig(phase2_duration_s=1.0, vote_rule=rule)
        )
        tagwatch.warm_up(15.0)
        results = tagwatch.run(n_cycles)
        mobile = next(iter(setup.mobile_epc_values))
        detected = [mobile in r.target_epc_values for r in results]
        false_targets = [
            len(r.target_epc_values - setup.mobile_epc_values)
            for r in results
        ]
        rows.append(
            [
                rule,
                float(np.mean(detected)),
                float(np.mean(false_targets)),
            ]
        )
    return VoteRuleResult(rows=rows)


def format_vote_rule(result: VoteRuleResult) -> str:
    """Render the vote-rule ablation table."""
    return format_table(
        ["vote rule", "mobile-tag targeting rate", "false targets/cycle"],
        result.rows,
        precision=2,
        title="Ablation — per-tag vote aggregation",
    )


# ---------------------------------------------------------------------------
# Phase II duration sweep
# ---------------------------------------------------------------------------

@dataclass
class Phase2SweepResult:
    durations_s: List[float]
    mobile_irr_hz: List[float]
    detection_latency_s: List[float]


def _phase2_point(
    duration: float, n_tags: int, seed: int
) -> Tuple[float, float]:
    """(mobile IRR, mean cycle latency) for one Phase II length."""
    setup = build_lab(
        n_tags=n_tags, n_mobile=1, seed=seed, partition=True
    )
    tagwatch = setup.tagwatch(
        TagwatchConfig(phase2_duration_s=float(duration))
    )
    tagwatch.warm_up(15.0)
    results = tagwatch.run(max(3, int(10.0 / duration)))
    t0 = results[0].phase1_start_s
    t1 = results[-1].phase2_end_s
    mobile = next(iter(setup.mobile_epc_values))
    irr = tagwatch.history.irr(mobile, t0, t1).irr_hz
    latency = float(np.mean([r.cycle_duration_s for r in results]))
    return irr, latency


def run_phase2_sweep(
    durations_s: Sequence[float] = (0.5, 1.0, 2.0, 5.0),
    n_tags: int = 20,
    seed: int = 59,
    workers: Optional[int] = None,
) -> Phase2SweepResult:
    """Mobile IRR and worst-case state-transition latency vs Phase II length.

    A stationary->moving transition can only be caught at a Phase I, so the
    detection latency is bounded by the cycle length — the quantity a long
    Phase II trades the IRR gain against.  Durations are independent fresh
    labs, so ``workers > 1`` fans them out without changing the numbers.
    """
    tasks = [(float(duration), n_tags, seed) for duration in durations_s]
    measured = parallel_map(_phase2_point, tasks, workers=workers)
    irrs = [irr for irr, _ in measured]
    latencies = [latency for _, latency in measured]
    return Phase2SweepResult(
        durations_s=list(durations_s),
        mobile_irr_hz=irrs,
        detection_latency_s=latencies,
    )


def format_phase2_sweep(result: Phase2SweepResult) -> str:
    """Render the Phase II sweep table."""
    rows = list(
        zip(
            result.durations_s,
            result.mobile_irr_hz,
            result.detection_latency_s,
        )
    )
    return format_table(
        ["Phase II (s)", "mobile IRR (Hz)", "transition latency (s)"],
        rows,
        precision=2,
        title=(
            "Ablation — Phase II length (paper fixes 5 s; applications "
            "trade IRR against transition latency)"
        ),
    )
