"""Detection latency: how fast does Tagwatch notice a state transition?

Not a paper figure, but the flip side of the paper's fixed 5 s Phase II: a
stationary tag that *starts* moving is only caught at the next Phase I, so
the worst-case detection latency is one cycle length.  This driver measures
it directly: a tag begins moving mid-deployment at a random point in the
cycle, and the latency is the gap between motion onset and the first cycle
that targets it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core import Tagwatch, TagwatchConfig
from repro.gen2.epc import random_epc_population
from repro.radio.constants import single_channel
from repro.reader import LLRPClient, SimReader
from repro.util.rng import RngStream
from repro.util.tables import format_table
from repro.world import Antenna, CircularPath, Scene, Stationary, TagInstance


@dataclass
class LatencyResult:
    """Measured detection latencies per Phase II setting."""

    phase2_durations_s: List[float]
    mean_latency_s: List[float]
    max_latency_s: List[float]
    n_trials: int


def _one_trial(phase2_s: float, seed: int) -> float:
    streams = RngStream(seed)
    epcs = random_epc_population(10, rng=streams.child("epcs"))
    # The transitioning tag: stationary, then circling.
    move_time = 16.0 + float(streams.child("onset").uniform(0.0, phase2_s))
    mover = CircularPath((0.5, 1.0, 0.8), 0.2, 0.5, start_time=move_time)
    tags = [TagInstance(epc=epcs[0], trajectory=mover)]
    for i in range(1, 10):
        tags.append(
            TagInstance(
                epc=epcs[i], trajectory=Stationary((0.3 * i, 2.0, 0.8))
            )
        )
    scene = Scene(
        [Antenna((-3, 0, 1.5)), Antenna((3, 0, 1.5))],
        tags,
        channel_plan=single_channel(),
        seed=streams.child_seed("scene"),
    )
    client = LLRPClient(SimReader(scene, seed=streams.child_seed("reader")))
    client.connect()
    tagwatch = Tagwatch(client, TagwatchConfig(phase2_duration_s=phase2_s))
    tagwatch.warm_up(14.0)
    deadline = move_time + 6.0 * max(phase2_s, 1.0)
    while client.reader.time_s < deadline:
        result = tagwatch.run_cycle()
        if (
            epcs[0].value in result.target_epc_values
            and result.phase1_start_s >= move_time - 0.5
        ):
            return max(0.0, result.phase1_end_s - move_time)
    raise RuntimeError("transition never detected")


def run(
    phase2_durations_s: Sequence[float] = (0.5, 1.0, 2.0),
    n_trials: int = 5,
    seed: int = 97,
) -> LatencyResult:
    """Measure onset-to-targeting latency across Phase II lengths."""
    means: List[float] = []
    maxima: List[float] = []
    for phase2 in phase2_durations_s:
        latencies = [
            _one_trial(phase2, seed=seed + 13 * trial + int(phase2 * 100))
            for trial in range(n_trials)
        ]
        means.append(float(np.mean(latencies)))
        maxima.append(float(np.max(latencies)))
    return LatencyResult(
        phase2_durations_s=list(phase2_durations_s),
        mean_latency_s=means,
        max_latency_s=maxima,
        n_trials=n_trials,
    )


def format_report(result: LatencyResult) -> str:
    """Render the latency table."""
    rows = list(
        zip(
            result.phase2_durations_s,
            result.mean_latency_s,
            result.max_latency_s,
        )
    )
    return format_table(
        ["Phase II (s)", "mean latency (s)", "max latency (s)"],
        rows,
        precision=2,
        title=(
            "Detection latency of a stationary->moving transition "
            f"({result.n_trials} trials/point; bounded by the cycle length)"
        ),
    )
