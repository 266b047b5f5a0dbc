"""A :class:`~repro.reader.reader.SimReader` reading under Gen2 session S1.

``SessionedReader`` runs every round single-target (A) over a
:class:`~repro.gen2.session.SessionFlagStore`: only tags whose inventoried
flag has decayed back to A participate, and every reported read flips its
tag to B.  This yields the classic S1 burst pattern, and it shows why
Tagwatch's Phase II must run S0: under S1 a target is read roughly once per
persistence period no matter how long the reader dwells.

Only the participant set and the read marking differ from the plain
reader, so channel hopping, round deadlines and ``run_duration`` are the
plain reader's own.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.gen2.commands import Select, Session
from repro.gen2.session import SessionFlagStore
from repro.reader.reader import RoundResult, SimReader
from repro.util.rng import SeedLike
from repro.world.scene import Scene


class SessionedReader(SimReader):
    """SimReader whose rounds obey S1 inventoried flags.

    ``flag_seed`` seeds each tag's flag persistence; the other keyword
    arguments are the plain reader's.
    """

    def __init__(
        self, scene: Scene, flag_seed: SeedLike = None, **kwargs
    ) -> None:
        super().__init__(scene, **kwargs)
        self.flags = SessionFlagStore(session=Session.S1, rng_seed=flag_seed)

    def participants(
        self, antenna_index: int, selects: Sequence[Select]
    ) -> List[int]:
        """In-range, selected tags whose flag is back on A."""
        return self.flags.filter_participants(
            super().participants(antenna_index, selects), self.time_s
        )

    def inventory_round(
        self,
        antenna_index: int,
        selects: Sequence[Select] = (),
        max_duration_s: Optional[float] = None,
    ) -> RoundResult:
        """One A-targeted round; every reported read flips its tag to B."""
        result = super().inventory_round(antenna_index, selects, max_duration_s)
        for obs in result.observations:
            self.flags.mark_read(self.scene.index_of(obs.epc), obs.time_s)
        return result
