"""Fig 1 + Section 7.3 application study: tracking accuracy vs contention.

A tag on a circular track (r = 20 cm, 0.7 m/s) is tracked with the
differential-hologram estimator from four corner antennas, in company with a
varying number of stationary tags:

- **traditional reading** (read-all) across stationary-companion counts —
  the paper measures 1.8 cm, 6 cm and 10.6 cm mean error as the mobile tag's
  reading rate collapses from 68 Hz to 30 Hz to 21 Hz (their counts: 0/2/4);
- **rate-adaptive reading** (Tagwatch) at the worst companion count — the
  paper recovers 3.34 cm because Phase II restores the mobile tag's rate.

The reproduction matches the paper's *rate operating points* rather than
its companion counts: the simulated reader profile loses rate more slowly
per companion than the authors' testbed, so reaching the paper's 30 Hz /
21 Hz contention levels takes ~8 / ~14 companions here (the mapping is
printed with the results).  The toy train holds still at a known point
first (the paper fixes the initial position) while the tracker calibrates
and, in the Tagwatch run, the immobility models mature during a read-all
warm-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core import TagwatchConfig
from repro.gen2.epc import random_epc_population
from repro.radio.constants import single_channel
from repro.radio.measurement import TagObservation
from repro.reader import LLRPClient, SimReader
from repro.tracking import evaluate_track
from repro.tracking.dah import DahConfig, DifferentialTracker
from repro.core.tagwatch import Tagwatch
from repro.experiments.harness import corner_antennas
from repro.util.rng import RngStream
from repro.util.tables import format_table
from repro.world import (
    AmbientObject,
    CircularPath,
    Scene,
    Stationary,
    TagInstance,
)


@dataclass
class TrackingCase:
    label: str
    n_stationary: int
    rate_adaptive: bool
    mobile_irr_hz: float
    mean_error_cm: float
    std_error_cm: float
    p90_error_cm: float
    n_estimates: int


@dataclass
class Fig01Result:
    cases: List[TrackingCase]

    def case(self, label: str) -> TrackingCase:
        """Look up a case by its display label."""
        for case in self.cases:
            if case.label == label:
                return case
        raise KeyError(label)


def _build_scene(n_stationary: int, move_time: float, seed: int):
    streams = RngStream(seed)
    epcs = random_epc_population(1 + n_stationary, rng=streams.child("epcs"))
    track = CircularPath(
        center=(0.0, 0.0, 0.8), radius=0.2, speed=0.7, start_time=move_time
    )
    placement = streams.child("placement")
    tags = [
        TagInstance(
            epc=epcs[0],
            trajectory=track,
            phase_offset_rad=float(placement.uniform(0, 2 * np.pi)),
        )
    ]
    for i in range(n_stationary):
        tags.append(
            TagInstance(
                epc=epcs[1 + i],
                trajectory=Stationary((0.6 + 0.15 * i, 0.6, 0.8)),
                phase_offset_rad=float(placement.uniform(0, 2 * np.pi)),
            )
        )
    ambient = [
        AmbientObject(Stationary((2.6, -1.8, 1.0)), 0.2, "cabinet"),
        AmbientObject(Stationary((-2.2, 2.4, 1.0)), 0.2, "shelf"),
    ]
    scene = Scene(
        corner_antennas(),
        tags,
        ambient_objects=ambient,
        channel_plan=single_channel(),
        seed=streams.child_seed("scene"),
    )
    reader = SimReader(scene, seed=streams.child_seed("reader"))
    return scene, reader, epcs, track


def _track_case(
    label: str,
    n_stationary: int,
    rate_adaptive: bool,
    duration_s: float,
    seed: int,
) -> TrackingCase:
    # Hold the train still long enough to calibrate (and, for Tagwatch, to
    # let the stationary tags' immobility models mature).
    move_time = 25.0 if rate_adaptive else 2.0
    scene, reader, epcs, track = _build_scene(n_stationary, move_time, seed)
    mobile_value = epcs[0].value
    antennas = [a.position for a in scene.antennas]
    # Velocity-aided unwrapping is the full DAH behaviour: trajectory
    # continuity bridges short per-antenna gaps, and breaks down once the
    # reading rate leaves too few reads to estimate the velocity — the same
    # collapse the paper measures.
    tracker = DifferentialTracker(
        antennas, scene.channel_plan, DahConfig(velocity_aided_unwrap=True)
    )

    if rate_adaptive:
        client = LLRPClient(reader)
        client.connect()
        # The tracking application pins the tag it tracks as a *concerned*
        # tag (Section 5's configuration file): it is scheduled in every
        # Phase II regardless of assessed motion, so the tracker sees no
        # coverage gap at motion onset (a stationary-to-moving transition
        # is otherwise only caught at the next Phase I).
        config = TagwatchConfig(phase2_duration_s=5.0).with_concerned(
            [mobile_value]
        )
        tagwatch = Tagwatch(client, config)
        collected: List[TagObservation] = []
        tagwatch.subscribe(
            lambda obs: collected.append(obs)
            if obs.epc.value == mobile_value
            else None
        )
        # Mature the companions' immobility models with plain read-all
        # before the train moves, then run normal two-phase cycles.
        tagwatch.warm_up(move_time - 7.0)
        while reader.time_s < move_time + duration_s:
            tagwatch.run_cycle()
        observations = collected
    else:
        observations, _ = reader.run_duration(move_time + duration_s)
        observations = [
            o for o in observations if o.epc.value == mobile_value
        ]

    calibration = [o for o in observations if o.time_s < move_time - 0.2]
    if not calibration:
        raise RuntimeError(f"{label}: no calibration reads before motion")
    tracker.calibrate(calibration, track.position(0.0))
    stream = [o for o in observations if o.time_s > move_time - 1.0]
    estimates = tracker.track(stream, track.position(move_time - 1.0))
    moving = [e for e in estimates if e.time_s > move_time + 0.3]
    accuracy = evaluate_track(moving, track)
    n_moving_reads = sum(1 for o in observations if o.time_s > move_time)
    return TrackingCase(
        label=label,
        n_stationary=n_stationary,
        rate_adaptive=rate_adaptive,
        mobile_irr_hz=n_moving_reads / duration_s,
        mean_error_cm=accuracy.mean_error_cm,
        std_error_cm=accuracy.std_error_m * 100.0,
        p90_error_cm=accuracy.p90_error_m * 100.0,
        n_estimates=accuracy.n_estimates,
    )


def run(
    stationary_counts: Sequence[int] = (0, 8, 14),
    duration_s: float = 6.0,
    seed: int = 31,
) -> Fig01Result:
    """Traditional reading across ``stationary_counts``, plus Tagwatch at
    the maximum count (the paper's four cases)."""
    cases = [
        _track_case(
            label=f"read-all (1+{n})",
            n_stationary=n,
            rate_adaptive=False,
            duration_s=duration_s,
            seed=seed + n,
        )
        for n in stationary_counts
    ]
    worst = max(stationary_counts)
    cases.append(
        _track_case(
            label=f"tagwatch (1+{worst})",
            n_stationary=worst,
            rate_adaptive=True,
            duration_s=duration_s,
            seed=seed + 100,
        )
    )
    return Fig01Result(cases=cases)


def format_report(result: Fig01Result) -> str:
    """Render the paper-style table for this figure."""
    headers = [
        "case",
        "mobile IRR (Hz)",
        "mean err (cm)",
        "std (cm)",
        "p90 (cm)",
        "fixes",
    ]
    rows = [
        [
            c.label,
            c.mobile_irr_hz,
            c.mean_error_cm,
            c.std_error_cm,
            c.p90_error_cm,
            c.n_estimates,
        ]
        for c in result.cases
    ]
    title = (
        "Fig 1 — tracking accuracy vs stationary company "
        "(paper: 1.8 / 6 / 10.6 cm read-all at 0/2/4; 3.34 cm Tagwatch at 4)"
    )
    return format_table(headers, rows, precision=1, title=title)
