"""FaultPlan: validation, serialisation round-trip, no-op detection."""

import pytest

from repro.faults import AntennaBlackout, FaultPlan


def test_default_plan_is_noop():
    assert FaultPlan().is_noop
    assert FaultPlan.none().is_noop


def test_any_fault_defeats_noop():
    assert not FaultPlan(report_loss=0.1).is_noop
    assert not FaultPlan(burst_enter=0.1).is_noop
    assert not FaultPlan(phase_spike=0.1).is_noop
    assert not FaultPlan(duplicate=0.1).is_noop
    assert not FaultPlan(reorder=0.1).is_noop
    assert not FaultPlan(delay=0.1).is_noop
    assert not FaultPlan(disconnect_at_s=(1.0,)).is_noop
    assert not FaultPlan(blackouts=(AntennaBlackout(0, 0.0, 1.0),)).is_noop


def test_burst_exit_alone_still_noop():
    # burst_exit has a non-zero default and no effect without burst_enter.
    assert FaultPlan(burst_exit=0.9).is_noop


@pytest.mark.parametrize(
    "kwargs",
    [
        {"report_loss": -0.1},
        {"report_loss": 1.5},
        {"phase_spike": 2.0},
        {"duplicate": -1.0},
        {"burst_enter": 0.2, "burst_exit": 0.0},
        {"phase_spike_std_rad": -0.5},
        {"disconnect_at_s": (-1.0,)},
    ],
)
def test_invalid_plans_rejected(kwargs):
    with pytest.raises(ValueError):
        FaultPlan(**kwargs)


def test_blackout_validation():
    with pytest.raises(ValueError):
        AntennaBlackout(-1, 0.0, 1.0)
    with pytest.raises(ValueError):
        AntennaBlackout(0, 2.0, 1.0)
    blackout = AntennaBlackout(1, 2.0, 4.0)
    assert blackout.covers(1, 2.0)
    assert blackout.covers(1, 3.999)
    assert not blackout.covers(1, 4.0)  # half-open window
    assert not blackout.covers(0, 3.0)  # other antenna


def test_disconnect_times_sorted():
    plan = FaultPlan(disconnect_at_s=(9.0, 1.0, 4.0))
    assert plan.disconnect_at_s == (1.0, 4.0, 9.0)


def test_round_trip_exact():
    plan = FaultPlan(
        report_loss=0.2,
        burst_enter=0.05,
        burst_exit=0.4,
        phase_spike=0.1,
        phase_spike_std_rad=0.7,
        duplicate=0.03,
        reorder=0.02,
        delay=0.01,
        disconnect_at_s=(3.0, 8.5),
        blackouts=(AntennaBlackout(2, 1.0, 2.5),),
    )
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown fault plan keys"):
        FaultPlan.from_dict({"report_loss": 0.1, "typo_field": 1})
