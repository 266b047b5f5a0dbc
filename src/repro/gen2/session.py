"""Inventoried-flag persistence across rounds (Gen2 session S1).

The inventory engine's two modes cover behaviour *within* one round; this
module models what happens *between* rounds.  A tag read under session S1
flips its inventoried flag from A to B and — crucially — the flag persists
for 500 ms to 5 s even while the tag stays energised, so an S1 single-target
reader sees each tag in bursts: one read, then silence until the flag
decays.  (An S0 flag decays at once, which is why continuous re-reading —
the behaviour rate-adaptive reading *wants* — uses S0 and needs no flag
store; S2/S3 are not modelled.)

The :class:`SessionFlagStore` is attached to a reader by
:class:`~repro.reader.sessioned.SessionedReader` to answer: which of these
candidate tags will actually participate in the next round, and what flags
does the round flip?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.gen2.commands import Session
from repro.util.rng import SeedLike, make_rng


#: (minimum, maximum) persistence of the inventoried flag, which for S1
#: holds even while the tag stays powered (Gen2 Table 6-16).
PERSISTENCE_RANGES_S: Dict[Session, Tuple[float, float]] = {
    Session.S1: (0.5, 5.0),
}


@dataclass
class SessionFlagStore:
    """Tracks per-tag inventoried-flag expiry for one session.

    Flags are 'B until t'; a tag participates in an A-targeted round when
    its entry is absent or expired.  Each tag draws its persistence once
    (real tags' persistence varies part-to-part but is stable per tag).
    """

    session: Session = Session.S1
    rng_seed: SeedLike = None
    _b_until: Dict[int, float] = field(default_factory=dict)
    _persistence: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.session not in PERSISTENCE_RANGES_S:
            raise ValueError(
                f"only session S1 flags are modelled, got {self.session!r}"
            )
        self._rng = make_rng(self.rng_seed)

    # ------------------------------------------------------------------
    def persistence_of(self, tag_id: int) -> float:
        """The (stable) flag persistence this tag exhibits."""
        if tag_id not in self._persistence:
            lo, hi = PERSISTENCE_RANGES_S[self.session]
            self._persistence[tag_id] = float(self._rng.uniform(lo, hi))
        return self._persistence[tag_id]

    def participates(self, tag_id: int, now_s: float) -> bool:
        """Whether the tag's flag is back on A at time ``now_s``."""
        return self._b_until.get(tag_id, -1.0) <= now_s

    def filter_participants(
        self, tag_ids: Iterable[int], now_s: float
    ) -> List[int]:
        """The subset of tags that would answer an A-targeted Query."""
        return [t for t in tag_ids if self.participates(t, now_s)]

    def mark_read(self, tag_id: int, read_time_s: float) -> None:
        """Flip the tag's flag to B until its persistence elapses."""
        self._b_until[tag_id] = read_time_s + self.persistence_of(tag_id)
