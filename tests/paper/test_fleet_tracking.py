"""Footnote-1 claim: multiple mobile objects tracked concurrently.

Three toy trains on separate tracks among ten stationary tags; Tagwatch
feeds the fleet tracker.  All three must track to centimetres while the
stationary tags' reading rate is suppressed.
"""

import numpy as np

from repro.core import Tagwatch, TagwatchConfig
from repro.gen2.epc import random_epc_population
from repro.radio.constants import single_channel
from repro.reader import LLRPClient, SimReader
from repro.tracking import DahConfig, FleetTracker, evaluate_track
from repro.util.rng import RngStream
from repro.util.tables import format_table
from repro.world import Antenna, CircularPath, Scene, Stationary, TagInstance

MOVE_TIME = 24.0


def run_fleet():
    streams = RngStream(121)
    epcs = random_epc_population(13, rng=streams.child("epcs"))
    # Three targets share Phase II, so each train's per-antenna read rate
    # is about a third of the single-train case; the lambda/4 unwrapping
    # bound then caps trackable speed near 0.4 m/s (see repro.tracking.dah).
    tracks = [
        CircularPath((1.2, 0.0, 0.8), 0.2, 0.40, start_time=MOVE_TIME),
        CircularPath((-1.2, 0.5, 0.8), 0.25, 0.35, start_time=MOVE_TIME),
        CircularPath((0.0, -1.2, 0.8), 0.22, 0.38, start_time=MOVE_TIME),
    ]
    placement = streams.child("placement")
    tags = [
        TagInstance(epc=epcs[i], trajectory=tracks[i],
                    phase_offset_rad=float(placement.uniform(0, 6.28)))
        for i in range(3)
    ]
    for i in range(3, 13):
        tags.append(
            TagInstance(
                epc=epcs[i],
                trajectory=Stationary((0.3 * i - 1.8, 2.4, 0.8)),
                phase_offset_rad=float(placement.uniform(0, 6.28)),
            )
        )
    # 10 m range so every track stays inside all four antennas' fields
    # (the default 8 m leaves the outermost track marginal).
    antennas = [
        Antenna((5, 5, 1.5), range_m=10.0),
        Antenna((-5, 5, 1.5), range_m=10.0),
        Antenna((-5, -5, 1.5), range_m=10.0),
        Antenna((5, -5, 1.5), range_m=10.0),
    ]
    scene = Scene(antennas, tags, channel_plan=single_channel(),
                  seed=streams.child_seed("scene"))
    client = LLRPClient(SimReader(scene, seed=streams.child_seed("reader")))
    client.connect()
    tagwatch = Tagwatch(
        client,
        TagwatchConfig(phase2_duration_s=4.0).with_concerned(epcs[:3]),
    )
    # With three targets sharing the channel the per-antenna gaps sit at
    # the plain-unwrap margin; velocity-aided unwrapping (the full DAH
    # behaviour) restores the headroom.
    fleet = FleetTracker(
        [a.position for a in antennas],
        scene.channel_plan,
        DahConfig(velocity_aided_unwrap=True),
    )
    delivered = []
    tagwatch.subscribe(delivered.append)
    tagwatch.warm_up(MOVE_TIME - 4.0)
    while client.reader.time_s < MOVE_TIME + 8.0:
        tagwatch.run_cycle()
    calibration = [o for o in delivered if o.time_s < MOVE_TIME - 0.3]
    for i in range(3):
        fleet.register(epcs[i].value, tracks[i].position(0.0), calibration)
    fleet.feed_all([o for o in delivered if o.time_s >= MOVE_TIME - 0.3])
    rows = []
    for i in range(3):
        estimates = [
            e for e in fleet.estimates(epcs[i].value)
            if e.time_s > MOVE_TIME + 0.5
        ]
        accuracy = evaluate_track(estimates, tracks[i])
        irr = tagwatch.history.irr(
            epcs[i].value, MOVE_TIME, MOVE_TIME + 8.0
        ).irr_hz
        rows.append(
            [f"train {i}", irr, accuracy.mean_error_cm,
             accuracy.p90_error_m * 100, accuracy.n_estimates]
        )
    return rows


def test_fleet_tracking():
    rows = run_fleet()
    print()
    print(
        format_table(
            ["tag", "IRR (Hz)", "mean err (cm)", "p90 (cm)", "fixes"],
            rows,
            precision=1,
            title=(
                "Footnote 1 — three mobile objects among ten stationary "
                "tags, tracked from Tagwatch's delivery stream"
            ),
        )
    )
    for _, irr, mean_err, _, fixes in rows:
        assert irr > 10.0
        assert mean_err < 5.0
        assert fixes > 30
