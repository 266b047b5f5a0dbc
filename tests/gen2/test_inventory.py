"""Tests for the slot-accurate inventory engine."""

import numpy as np
import pytest

from repro.gen2.aloha import FixedQ, IdealDFSA, QAdaptive
from repro.gen2.inventory import InventoryEngine, InventoryLog
from repro.gen2.timing import R420_PROFILE


def engine(with_replacement=True, seed=1, strategy=None):
    factory = strategy or (lambda: QAdaptive(initial_q=4))
    return InventoryEngine(
        R420_PROFILE, factory, rng=seed, with_replacement=with_replacement
    )


class TestRunRound:
    def test_reads_every_tag_once(self):
        log = engine().run_round(range(20))
        assert sorted(r.tag_index for r in log.reads) == list(range(20))

    def test_empty_population(self):
        log = engine().run_round([])
        assert log.reads == []
        assert log.n_empty == 1
        assert log.duration_s > R420_PROFILE.startup_cost

    def test_duration_includes_startup(self):
        log = engine().run_round([0])
        assert log.duration_s >= R420_PROFILE.startup_cost

    def test_read_times_increase(self):
        log = engine().run_round(range(10))
        times = [r.time_s for r in log.reads]
        assert times == sorted(times)

    def test_deterministic_with_seed(self):
        a = engine(seed=7).run_round(range(15))
        b = engine(seed=7).run_round(range(15))
        assert [r.tag_index for r in a.reads] == [r.tag_index for r in b.reads]
        assert a.duration_s == b.duration_s

    def test_max_duration_truncates(self):
        log = engine().run_round(range(50), max_duration_s=0.021)
        assert log.truncated
        assert len(log.reads) < 50

    def test_duplicates_counted_in_s0_mode(self):
        log = engine(with_replacement=True, seed=3).run_round(range(30))
        assert log.n_duplicate > 0

    def test_no_duplicates_without_replacement(self):
        log = engine(with_replacement=False, seed=3).run_round(range(30))
        assert log.n_duplicate == 0


class TestSlotCounts:
    def test_s1_mode_near_ne(self):
        """Without replacement, ideal DFSA needs ~n*e slots."""
        n = 40
        eng = engine(with_replacement=False, seed=5, strategy=IdealDFSA)
        slots = np.mean([eng.run_round(range(n)).n_slots for _ in range(10)])
        assert slots == pytest.approx(n * np.e, rel=0.25)

    def test_s0_mode_near_coupon_collector(self):
        """With replacement, ideal DFSA needs ~n*e*H_n slots (Eqn 4)."""
        n = 40
        h_n = sum(1.0 / i for i in range(1, n + 1))
        eng = engine(with_replacement=True, seed=5, strategy=IdealDFSA)
        slots = np.mean([eng.run_round(range(n)).n_slots for _ in range(10)])
        assert slots == pytest.approx(n * np.e * h_n, rel=0.25)

    def test_fixed_q_too_small_hits_cap(self):
        """A tiny fixed frame over many tags collides forever: the slot cap
        must keep the engine from hanging."""
        eng = engine(strategy=lambda: FixedQ(0), with_replacement=False)
        eng.MAX_SLOTS_PER_ROUND = 500
        log = eng.run_round(range(10))
        assert log.truncated


class TestDurationScaling:
    def test_more_tags_take_longer(self):
        eng = engine(seed=9)
        d_small = np.mean([eng.run_round(range(5)).duration_s for _ in range(5)])
        d_large = np.mean([eng.run_round(range(40)).duration_s for _ in range(5)])
        assert d_large > 2 * d_small


class TestInventoryLogMerge:
    def test_merge_accumulates(self):
        a = InventoryLog(n_empty=1, n_single=2, n_rounds=1, end_time_s=1.0)
        b = InventoryLog(n_empty=3, n_collision=1, n_rounds=1, end_time_s=2.0)
        a.merge(b)
        assert a.n_empty == 4
        assert a.n_slots == 7
        assert a.end_time_s == 2.0
