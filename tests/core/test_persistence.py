"""Tests for immobility-state checkpointing."""

import numpy as np
import pytest

from repro.core.motion import MotionAssessor
from repro.core.persistence import assessor_state, restore_assessor
from repro.experiments.harness import build_lab


@pytest.fixture(scope="module")
def trained():
    setup = build_lab(n_tags=8, n_mobile=1, seed=111, n_antennas=2)
    assessor = MotionAssessor()
    observations, _ = setup.reader.run_duration(25.0)
    assessor.observe_all(observations)
    assessor.assess()
    return setup, assessor


class TestRoundTrip:
    def test_state_round_trip(self, trained):
        _, assessor = trained
        restored = restore_assessor(assessor_state(assessor))
        assert restored._last_seen == assessor._last_seen
        assert dict(restored.shards()).keys() == dict(assessor.shards()).keys()

    def test_mode_contents_preserved(self, trained):
        _, assessor = trained
        restored = restore_assessor(assessor_state(assessor))
        key, stack = next(assessor.shards())
        original = stack.sorted_modes()[0]
        copy = dict(restored.shards())[key].sorted_modes()[0]
        assert copy.mean == original.mean
        assert copy.std == original.std
        assert copy.weight == original.weight
        assert copy.best_run == original.best_run

    def test_version_check(self, trained):
        _, assessor = trained
        state = assessor_state(assessor)
        state["version"] = 99
        with pytest.raises(ValueError):
            restore_assessor(state)


class TestWarmRestart:
    def test_restored_assessor_skips_relearning(self, trained):
        """A restored assessor classifies stationary tags immediately; a
        fresh one flags everything as moving."""
        setup, assessor = trained
        restored = restore_assessor(assessor_state(assessor))
        fresh = MotionAssessor()
        observations, _ = setup.reader.run_duration(1.5)
        for candidate in (restored, fresh):
            candidate.observe_all(observations)
        static_values = {
            e.value for e in setup.epcs[1:]
        }
        restored_moving = {
            epc
            for epc, verdict in restored.assess().items()
            if verdict.moving and epc in static_values
        }
        fresh_moving = {
            epc
            for epc, verdict in fresh.assess().items()
            if verdict.moving and epc in static_values
        }
        # Warm: only vote noise (the paper's ~10% per-reading FPR
        # over an 'any' window), far from flagging everything.
        assert len(restored_moving) <= len(static_values) // 2
        assert len(fresh_moving) == len(static_values)  # cold: everything
