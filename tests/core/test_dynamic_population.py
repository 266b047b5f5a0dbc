"""Integration tests: tags entering and leaving a live deployment.

Section 4.3 ("How to deal with reading exceptions?"): tags may come in, go
out or be temporarily blocked at any time.  Models are created on first
sight and dropped after a period of absence.
"""

import numpy as np
import pytest

from repro.core import Tagwatch, TagwatchConfig
from repro.gen2.epc import random_epc_population
from repro.radio.constants import single_channel
from repro.reader import LLRPClient, SimReader
from repro.util.rng import RngStream
from repro.world import Antenna, Scene, Stationary, TagInstance, TurntablePath


def build_dynamic_scene(seed=41, newcomer_enter=16.0, leaver_exit=18.0):
    streams = RngStream(seed)
    epcs = random_epc_population(8, rng=streams.child("epcs"))
    tags = []
    # Index 0: mobile; 1..5 permanent stationary; 6 leaves; 7 arrives late.
    tags.append(
        TagInstance(
            epc=epcs[0],
            trajectory=TurntablePath((0.0, 1.5, 0.8), 0.25, 3.0),
        )
    )
    for i in range(1, 6):
        tags.append(
            TagInstance(
                epc=epcs[i], trajectory=Stationary((0.3 * i, 2.0, 0.8))
            )
        )
    tags.append(
        TagInstance(
            epc=epcs[6],
            trajectory=Stationary((1.0, 2.5, 0.8)),
            exit_time=leaver_exit,
        )
    )
    tags.append(
        TagInstance(
            epc=epcs[7],
            trajectory=Stationary((1.5, 2.5, 0.8)),
            enter_time=newcomer_enter,
        )
    )
    scene = Scene(
        [Antenna((-3, 0, 1.5)), Antenna((3, 0, 1.5))],
        tags,
        channel_plan=single_channel(),
        seed=streams.child_seed("scene"),
    )
    return scene, epcs


@pytest.fixture(scope="module")
def run():
    scene, epcs = build_dynamic_scene()
    client = LLRPClient(SimReader(scene, seed=42))
    client.connect()
    tagwatch = Tagwatch(
        client,
        TagwatchConfig(phase2_duration_s=0.8, expire_after_s=6.0),
    )
    tagwatch.warm_up(14.0)
    results = tagwatch.run(14)
    return tagwatch, results, epcs


class TestNewcomer:
    def test_newcomer_seen_after_entry(self, run):
        tagwatch, results, epcs = run
        newcomer = epcs[7].value
        seen_at = [
            r.index for r in results if newcomer in r.assessments
        ]
        assert seen_at  # it was picked up by a later Phase I

    def test_newcomer_initially_treated_as_moving(self, run):
        """A fresh tag has no immobility model: it must be scheduled."""
        tagwatch, results, epcs = run
        newcomer = epcs[7].value
        first = next(r for r in results if newcomer in r.assessments)
        assert first.assessments[newcomer].moving

    def test_newcomer_eventually_stationary(self, run):
        tagwatch, results, epcs = run
        newcomer = epcs[7].value
        verdicts = [
            r.assessments[newcomer].moving
            for r in results
            if newcomer in r.assessments
        ]
        assert verdicts[-1] is False

    def test_newcomer_accumulates_history(self, run):
        tagwatch, _, epcs = run
        assert tagwatch.history.count(epcs[7].value) > 10


class TestLeaver:
    def test_leaver_models_expired(self, run):
        tagwatch, results, epcs = run
        leaver = epcs[6].value
        assert leaver not in tagwatch.assessor._last_seen

    def test_leaver_absent_from_late_assessments(self, run):
        _, results, epcs = run
        leaver = epcs[6].value
        assert leaver not in results[-1].assessments


class TestMobileThroughout:
    def test_mobile_tag_remains_targeted(self, run):
        tagwatch, results, epcs = run
        mobile = epcs[0].value
        late = results[-4:]
        assert all(mobile in r.target_epc_values for r in late)
