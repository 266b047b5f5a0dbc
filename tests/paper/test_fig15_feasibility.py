"""Fig 15/16 claim: schedule feasibility with 2 and 5 of 40 targets.

Paper (Fig 15, 2/40): Tagwatch lifts target IRR from 13 to 47 Hz (+261%),
naive reaches 24 Hz; non-targets drop to ~0 during Phase II.
Paper (Fig 16, 5/40): Tagwatch still gains (+120%) while naive's
per-target Select start-ups erode most of its advantage.
"""

from repro.experiments.report import FIGURES


def test_fig15_16_feasibility():
    two = FIGURES["fig15"].run("paper")
    five = FIGURES["fig16"].run("paper")
    print()
    print(FIGURES["fig15"].format(two))
    print()
    print(FIGURES["fig16"].format(five))

    # Fig 15 (2/40): Tagwatch's absolute target IRR lands near the paper's
    # 47 Hz; naive near its 24 Hz; ordering tagwatch > naive > read-all.
    assert 35 < two.schemes["tagwatch"].target_irr_mean_hz < 60
    assert two.gain("tagwatch") > two.gain("naive") > 1.0
    assert (
        two.schemes["tagwatch"].nontarget_irr_mean_hz
        < 0.2 * two.schemes["read-all"].nontarget_irr_mean_hz
    )
    # Fig 16 (5/40): gains shrink for both; naive shrinks harder.
    assert five.gain("tagwatch") < two.gain("tagwatch")
    assert five.gain("naive") < two.gain("naive")
    assert five.gain("tagwatch") > five.gain("naive")
