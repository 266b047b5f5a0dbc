"""Tests for frame-length strategies."""

import pytest

from repro.gen2.aloha import (
    FixedQ,
    IdealDFSA,
    QAdaptive,
    SlotOutcome,
)


class TestFixedQ:
    def test_constant_frame(self):
        s = FixedQ(3)
        assert s.start_round(100) == 8
        assert s.on_slot(SlotOutcome.COLLISION) is None
        assert s.next_frame(50) == 8

    def test_range_check(self):
        with pytest.raises(ValueError):
            FixedQ(16)


class TestIdealDFSA:
    def test_frame_equals_population(self):
        s = IdealDFSA()
        assert s.start_round(40) == 40
        assert s.next_frame(39) == 39

    def test_restart_on_success(self):
        s = IdealDFSA()
        s.start_round(10)
        assert s.on_slot(SlotOutcome.SINGLE) == -1

    def test_no_restart_on_empty(self):
        s = IdealDFSA()
        s.start_round(10)
        assert s.on_slot(SlotOutcome.EMPTY) is None

    def test_minimum_frame_one(self):
        assert IdealDFSA().start_round(0) == 1


class TestQAdaptive:
    def test_collisions_grow_q(self):
        s = QAdaptive(initial_q=4, c=0.5)
        s.start_round(10)
        assert s.on_slot(SlotOutcome.COLLISION) is None  # 4.5 rounds to 4
        assert s.on_slot(SlotOutcome.COLLISION) == 32  # 5.0 -> Q=5

    def test_empties_shrink_q(self):
        s = QAdaptive(initial_q=4, c=0.5)
        s.start_round(10)
        s.on_slot(SlotOutcome.EMPTY)
        assert s.on_slot(SlotOutcome.EMPTY) == 8  # 3.0 -> Q=3

    def test_success_neutral(self):
        s = QAdaptive(initial_q=4, c=0.5)
        s.start_round(10)
        assert s.on_slot(SlotOutcome.SINGLE) is None

    def test_clamps_at_zero(self):
        s = QAdaptive(initial_q=0, c=0.5)
        s.start_round(1)
        for _ in range(5):
            s.on_slot(SlotOutcome.EMPTY)
        assert s.qfp == 0.0

    def test_clamps_at_fifteen(self):
        s = QAdaptive(initial_q=15, c=0.5)
        s.start_round(10)
        for _ in range(5):
            s.on_slot(SlotOutcome.COLLISION)
        assert s.qfp == 15.0

    def test_c_range_enforced(self):
        with pytest.raises(ValueError):
            QAdaptive(c=0.6)

    def test_start_round_resets(self):
        s = QAdaptive(initial_q=4, c=0.5)
        s.start_round(10)
        s.on_slot(SlotOutcome.COLLISION)
        s.start_round(10)
        assert s.qfp == 4.0
