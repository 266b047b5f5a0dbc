"""Site topologies: declarative reader placements over one shared tag field.

A topology is pure data — tuples of primitives with ``to_dict``/``from_dict``
round-trips — so it can cross a process boundary (the sharded runner pickles
one config per worker) and live in golden files without any float drift.
Nothing here draws randomness; seeds enter one layer up, in
:class:`repro.site.site.SiteConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: Per-process memo of tag grids keyed by the four fields that define them.
#: At 10k–100k tags the grid is rebuilt once per reader shard (the cull and
#: the scene build both need it), so sharing one list across every equal
#: topology — reconstructed copies from worker pickles included — removes an
#: O(n_tags) Python loop per shard.  Callers treat the list as immutable.
_GRID_MEMO: Dict[
    Tuple[int, float, int, Tuple[float, float, float]],
    List[Tuple[float, float, float]],
] = {}
_GRID_MEMO_LIMIT = 8


@dataclass(frozen=True)
class ReaderPlacement:
    """One COTS reader: where it stands and how far its antenna reaches."""

    reader_id: int
    position: Tuple[float, float, float]
    range_m: float = 8.0

    def __post_init__(self) -> None:
        if self.reader_id < 0:
            raise ValueError("reader_id must be non-negative")
        if len(self.position) != 3:
            raise ValueError("position must be an (x, y, z) triple")
        if self.range_m <= 0:
            raise ValueError("reader range must be positive")

    def to_dict(self) -> Dict[str, object]:
        """Primitive dict form (picklable, golden-file stable)."""
        return {
            "reader_id": self.reader_id,
            "position": [round(float(c), 9) for c in self.position],
            "range_m": round(float(self.range_m), 9),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ReaderPlacement":
        return cls(
            reader_id=int(data["reader_id"]),
            position=tuple(float(c) for c in data["position"]),
            range_m=float(data["range_m"]),
        )


@dataclass(frozen=True)
class SiteTopology:
    """N reader placements over one shared grid of ``n_tags`` tags.

    The tag field is a wall-style grid (the paper's layout, scaled up):
    ``columns`` tags per row, ``spacing_m`` apart, centred on
    ``field_center``.  Every reader sees the *same* tags; which of them a
    given reader can energise is a pure function of placement geometry.
    """

    name: str
    readers: Tuple[ReaderPlacement, ...]
    n_tags: int
    spacing_m: float = 0.25
    columns: int = 20
    field_center: Tuple[float, float, float] = (0.0, 0.0, 0.8)

    def __post_init__(self) -> None:
        if not self.readers:
            raise ValueError("a site needs at least one reader")
        ids = [r.reader_id for r in self.readers]
        if ids != sorted(set(ids)):
            raise ValueError("reader ids must be unique and ascending")
        if self.n_tags < 1:
            raise ValueError("a site needs at least one tag")
        if self.spacing_m <= 0 or self.columns < 1:
            raise ValueError("tag grid must have positive spacing and columns")

    @property
    def n_readers(self) -> int:
        return len(self.readers)

    def reader(self, reader_id: int) -> ReaderPlacement:
        """Placement for one reader id; raises ``KeyError`` if absent."""
        for placement in self.readers:
            if placement.reader_id == reader_id:
                return placement
        raise KeyError(f"no reader {reader_id} in topology {self.name!r}")

    def neighbors_within(
        self, reader_id: int, radius_m: float
    ) -> List[int]:
        """Ids of the *other* readers within ``radius_m`` of this one.

        Ascending by id — the deterministic order the site supervisor
        boosts coverage in when a reader dies and its neighbours must
        stretch their zones over the hole.
        """
        centre = self.reader(reader_id).position
        out = []
        for placement in self.readers:
            if placement.reader_id == reader_id:
                continue
            if (
                math.dist(centre, placement.position) <= radius_m
            ):
                out.append(placement.reader_id)
        return out

    def tag_positions(self) -> List[Tuple[float, float, float]]:
        """Grid positions of every tag, centred on ``field_center``.

        Memoised per process and computed with vectorised arithmetic whose
        operation order matches the historical scalar loop exactly
        (``x0 + col * spacing``, one IEEE multiply and add per coordinate),
        so the returned floats are bit-identical to it.  The shared list
        must be treated as immutable.
        """
        key = (self.n_tags, self.spacing_m, self.columns, self.field_center)
        cached = _GRID_MEMO.get(key)
        if cached is not None:
            return cached
        rows = (self.n_tags + self.columns - 1) // self.columns
        cx, cy, cz = self.field_center
        x0 = cx - (min(self.n_tags, self.columns) - 1) * self.spacing_m / 2.0
        y0 = cy - (rows - 1) * self.spacing_m / 2.0
        row, col = np.divmod(np.arange(self.n_tags), self.columns)
        xs = x0 + col * self.spacing_m
        ys = y0 + row * self.spacing_m
        out = list(zip(xs.tolist(), ys.tolist(), [float(cz)] * self.n_tags))
        if len(_GRID_MEMO) >= _GRID_MEMO_LIMIT:
            _GRID_MEMO.clear()
        _GRID_MEMO[key] = out
        return out

    def to_dict(self) -> Dict[str, object]:
        """Primitive dict form (picklable, golden-file stable)."""
        return {
            "name": self.name,
            "readers": [r.to_dict() for r in self.readers],
            "n_tags": self.n_tags,
            "spacing_m": round(float(self.spacing_m), 9),
            "columns": self.columns,
            "field_center": [round(float(c), 9) for c in self.field_center],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SiteTopology":
        return cls(
            name=str(data["name"]),
            readers=tuple(
                ReaderPlacement.from_dict(r) for r in data["readers"]
            ),
            n_tags=int(data["n_tags"]),
            spacing_m=float(data["spacing_m"]),
            columns=int(data["columns"]),
            field_center=tuple(float(c) for c in data["field_center"]),
        )


def ring_site(
    n_readers: int,
    n_tags: int,
    radius_m: float = 4.0,
    range_m: float = 12.0,
    height_m: float = 1.5,
    name: str = "",
) -> SiteTopology:
    """``n_readers`` evenly spaced on a circle around one shared tag field.

    The classic redundancy layout: with ``range_m`` comfortably above
    ``radius_m`` plus the field's extent, every reader covers every tag and
    the zones overlap completely — redundant independent sessions over the
    same population (the multi-session paper's setting).
    """
    if n_readers < 1:
        raise ValueError("need at least one reader")
    readers = []
    for k in range(n_readers):
        angle = 2.0 * math.pi * k / n_readers
        readers.append(
            ReaderPlacement(
                reader_id=k,
                position=(
                    round(radius_m * math.cos(angle), 9),
                    round(radius_m * math.sin(angle), 9),
                    height_m,
                ),
                range_m=range_m,
            )
        )
    return SiteTopology(
        name=name or f"ring-{n_readers}",
        readers=tuple(readers),
        n_tags=n_tags,
    )


def line_site(
    n_readers: int,
    n_tags: int,
    pitch_m: float = 3.0,
    range_m: float = 6.0,
    height_m: float = 1.5,
    name: str = "",
) -> SiteTopology:
    """``n_readers`` along an aisle, zones overlapping only with neighbours.

    The dock-door/aisle layout: reader k stands at ``x = (k - (N-1)/2) *
    pitch_m``, so with ``range_m`` around twice the pitch each zone overlaps
    its neighbours' but not the far end of the aisle — partial redundancy,
    the other interesting fusion regime.
    """
    if n_readers < 1:
        raise ValueError("need at least one reader")
    x0 = -(n_readers - 1) * pitch_m / 2.0
    readers = tuple(
        ReaderPlacement(
            reader_id=k,
            position=(round(x0 + k * pitch_m, 9), 2.0, height_m),
            range_m=range_m,
        )
        for k in range(n_readers)
    )
    return SiteTopology(
        name=name or f"line-{n_readers}",
        readers=readers,
        n_tags=n_tags,
        columns=max(20, n_readers * 8),
    )
