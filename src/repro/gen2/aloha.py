"""Reader-side frame-length control: FSA, ideal DFSA, and Q-adaptive.

The strategy object decides the frame length at the start of a round, reacts
to each slot outcome (possibly requesting a mid-frame QueryAdjust), and picks
the next frame length when a frame is exhausted.  ``QAdaptive`` is the
award-punish controller COTS Gen2 readers run (Section 2.1 of the paper);
``IdealDFSA`` is the genie-aided optimum used by the analytical model.
"""

from __future__ import annotations

import abc
import enum
from typing import Optional


class SlotOutcome(enum.Enum):
    """What the reader observed in one time slot."""

    EMPTY = "empty"
    SINGLE = "single"
    COLLISION = "collision"


class FrameStrategy(abc.ABC):
    """Frame-length policy for one inventory round.

    A fresh strategy instance is created per round; instances are stateful.
    """

    @abc.abstractmethod
    def start_round(self, n_estimate: int) -> int:
        """Frame length for the first frame (``n_estimate`` may be a guess)."""

    @abc.abstractmethod
    def on_slot(self, outcome: SlotOutcome) -> Optional[int]:
        """React to a slot outcome.

        Returning an integer requests an immediate QueryAdjust to a frame of
        that length (all pending tags redraw); returning ``None`` continues
        the current frame.
        """

    @abc.abstractmethod
    def next_frame(self, n_remaining_estimate: int) -> int:
        """Frame length for the next frame once the current one is exhausted."""


class FixedQ(FrameStrategy):
    """Plain FSA with a constant frame of ``2**q`` slots."""

    def __init__(self, q: int) -> None:
        if not 0 <= q <= 15:
            raise ValueError(f"Q must be in 0..15, got {q}")
        self.q = q

    def start_round(self, n_estimate: int) -> int:
        return 1 << self.q

    def on_slot(self, outcome: SlotOutcome) -> Optional[int]:
        return None

    def next_frame(self, n_remaining_estimate: int) -> int:
        return 1 << self.q


class IdealDFSA(FrameStrategy):
    """Genie-aided dynamic FSA: frame length always equals the number of
    unread tags, the optimum derived in Section 2.2 (f = n maximises the
    single-reply probability at 1/e)."""

    def start_round(self, n_estimate: int) -> int:
        return max(1, n_estimate)

    def on_slot(self, outcome: SlotOutcome) -> Optional[int]:
        if outcome == SlotOutcome.SINGLE:
            # The paper's idealised scheme restarts with f = f - 1 after each
            # successful read; the engine passes the updated remaining count
            # through next_frame, so a restart request is signalled here.
            return -1  # sentinel: engine calls next_frame with fresh count
        return None

    def next_frame(self, n_remaining_estimate: int) -> int:
        return max(1, n_remaining_estimate)


class QAdaptive(FrameStrategy):
    """The Gen2 Q-adaptive (Q-algorithm) controller.

    Maintains a floating-point ``Qfp``; each collision rewards a longer frame
    (``Qfp += c``), each empty slot punishes it (``Qfp -= c``), successful
    slots leave it unchanged.  When ``round(Qfp)`` departs from the Q in
    force, the reader issues QueryAdjust.
    """

    def __init__(self, initial_q: int = 4, c: float = 0.35) -> None:
        if not 0 <= initial_q <= 15:
            raise ValueError(f"initial Q must be in 0..15, got {initial_q}")
        if not 0.1 <= c <= 0.5:
            # The spec recommends 0.1 <= C < 0.5.
            raise ValueError(f"Q-algorithm constant C must be in [0.1, 0.5], got {c}")
        self.initial_q = initial_q
        self.c = c
        self.qfp = float(initial_q)
        self.q = initial_q

    def start_round(self, n_estimate: int) -> int:
        self.qfp = float(self.initial_q)
        self.q = self.initial_q
        return 1 << self.q

    def on_slot(self, outcome: SlotOutcome) -> Optional[int]:
        if outcome == SlotOutcome.COLLISION:
            self.qfp = min(15.0, self.qfp + self.c)
        elif outcome == SlotOutcome.EMPTY:
            self.qfp = max(0.0, self.qfp - self.c)
        new_q = int(round(self.qfp))
        if new_q != self.q:
            self.q = new_q
            return 1 << self.q
        return None

    def next_frame(self, n_remaining_estimate: int) -> int:
        return 1 << self.q


def make_strategy(name: str, **kwargs) -> FrameStrategy:
    """Factory by name: 'fixed', 'dfsa' or 'q-adaptive'."""
    lowered = name.lower()
    if lowered in ("fixed", "fsa"):
        return FixedQ(**kwargs)
    if lowered in ("dfsa", "ideal"):
        return IdealDFSA(**kwargs)
    if lowered in ("q-adaptive", "qadaptive", "q"):
        return QAdaptive(**kwargs)
    raise ValueError(f"unknown anti-collision strategy {name!r}")
