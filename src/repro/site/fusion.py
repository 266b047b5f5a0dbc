"""Cross-reader fusion: dedup/merge tag reports with provenance.

Every reader at a site independently reports ``(EPC, time, antenna,
channel, phase, RSS)`` tuples.  The fusion layer turns those streams into
one site-level inventory while preserving three things the single-reader
pipeline never had to care about:

- **identity dedup** — the same physical read must not be counted twice,
  however many times its report batch is replayed or merged (at-least-once
  transport upstream, exactly-once accounting here);
- **provenance** — each fused record remembers which readers saw the tag,
  how often, and when last — the raw material for coverage analysis and
  for the redundancy experiment's missed-tag accounting;
- **staleness arbitration** — "where/when was this tag last seen" must be
  a *deterministic* choice even when two readers report in the same
  microsecond: reports are totally ordered by ``(time, reader, antenna,
  channel, phase, rss)`` and the maximum wins.

The merge is a commutative, idempotent monoid fold over report *sets*:
``merge`` of any permutation of any duplication of the same reports yields
a byte-identical :meth:`FusionLayer.snapshot`.  The property tests in
``tests/site/test_fusion_properties.py`` hold it to that contract, and the
sharded site runner relies on it to fuse worker outputs in any grouping.

Two code paths implement the fold, chosen by batch size alone.
:meth:`FusionLayer.ingest` absorbs one report at a time; batches of at
least ``_COLUMNAR_MIN_BATCH`` reports passed to :meth:`ingest_many` /
:meth:`ingest_rows` / :meth:`merge` go through a vectorized
arbitration-order ``lexsort`` instead — dedup, per-EPC aggregation and
winner selection all happen on numpy columns.  A report that arrives as
a row is kept as its dedup key alone: ``TagReport`` objects are built
only for the arbitration winners that become a record's ``latest`` and
by :meth:`FusionLayer.reports`, never per row.  Both paths are
observably identical, so every downstream surface
(:meth:`FusionLayer.snapshot`, :meth:`reports`, :meth:`records`) is
byte-identical to a plain ``ingest`` loop — the differential property
tests in ``tests/site/test_fusion_columnar.py`` pin that across
arbitrary orders, duplications and interleaved merges.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass, field
from itertools import repeat
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.radio.measurement import TagObservation

#: Report timestamps are rounded to this many decimals when forming the
#: dedup key, matching the precision of every serialised trace in the repo.
TIME_PRECISION = 9

ReportKey = Tuple[int, int, float, int, int, float, float]


@dataclass(frozen=True)
class TagReport:
    """One tag read as reported by one reader of the site."""

    epc_value: int
    reader_id: int
    time_s: float
    antenna_index: int
    channel_index: int
    phase_rad: float
    rss_dbm: float

    @property
    def key(self) -> ReportKey:
        """Identity of the underlying physical read (dedup key).

        The *full* rounded payload is part of the identity: replays of the
        same report are exact duplicates and fuse away, while two reports
        that differ in any field are distinct reads and both survive —
        which is what makes fusion a pure set union, commutative and
        idempotent by construction rather than by tie-breaking.
        """
        return (
            self.epc_value,
            self.reader_id,
            round(self.time_s, TIME_PRECISION),
            self.antenna_index,
            self.channel_index,
            round(self.phase_rad, TIME_PRECISION),
            round(self.rss_dbm, TIME_PRECISION),
        )

    @property
    def arbitration_order(self) -> Tuple[float, int, int, int, float, float]:
        """Total order used to pick the authoritative latest sighting.

        Total over *distinct* reports (the payload fields break any tie in
        time/reader/antenna/channel), so the arbitration winner never
        depends on ingest order.
        """
        return (
            round(self.time_s, TIME_PRECISION),
            self.reader_id,
            self.antenna_index,
            self.channel_index,
            round(self.phase_rad, TIME_PRECISION),
            round(self.rss_dbm, TIME_PRECISION),
        )

    @classmethod
    def from_observation(
        cls, observation: TagObservation, reader_id: int
    ) -> "TagReport":
        return cls(
            epc_value=observation.epc.value,
            reader_id=reader_id,
            time_s=observation.time_s,
            antenna_index=observation.antenna_index,
            channel_index=observation.channel_index,
            phase_rad=observation.phase_rad,
            rss_dbm=observation.rss_dbm,
        )

    def to_row(self) -> List[object]:
        """Primitive row for pickling across workers / canonical JSON."""
        return [
            format(self.epc_value, "x"),
            self.reader_id,
            round(self.time_s, TIME_PRECISION),
            self.antenna_index,
            self.channel_index,
            round(self.phase_rad, TIME_PRECISION),
            round(self.rss_dbm, TIME_PRECISION),
        ]

    @classmethod
    def from_row(cls, row: List[object]) -> "TagReport":
        return cls(
            epc_value=int(row[0], 16),
            reader_id=int(row[1]),
            time_s=float(row[2]),
            antenna_index=int(row[3]),
            channel_index=int(row[4]),
            phase_rad=float(row[5]),
            rss_dbm=float(row[6]),
        )


#: ``10 ** TIME_PRECISION``, exact as a double.
_SCALE = 10.0**TIME_PRECISION


def rounded(values: Sequence[float]) -> List[float]:
    """``[round(x, TIME_PRECISION) for x in values]``, vectorised.

    ``round`` rounds the exact value of ``x`` to nine decimals, half to
    even, and returns the double nearest that decimal: the correctly
    rounded quotient ``N / 1e9`` of the integer ``N``, which numpy's
    division of two exact doubles gives.  ``N`` is ``rint(x * 1e9)``
    unless the product's own rounding moved it across a half-way point,
    so the values within two ulps of one (and those of magnitude 2**50
    and above, infinities and NaNs) keep Python's ``round``.
    """
    x = np.array(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * _SCALE
        n = np.rint(y)
        unsure = ~(0.5 - np.abs(y - n) > 2.0 * np.spacing(np.abs(y)))
    out = (n / _SCALE).tolist()
    for i in np.flatnonzero(unsure).tolist():
        out[i] = round(values[i], TIME_PRECISION)
    return out


def observation_rows(
    observations: Sequence[TagObservation], reader_id: int
) -> List[List[object]]:
    """``TagReport.from_observation(obs, reader_id).to_row()`` for each
    observation, written straight from its fields."""
    times = rounded([obs.time_s for obs in observations])
    phases = rounded([obs.phase_rad for obs in observations])
    rsss = rounded([obs.rss_dbm for obs in observations])
    return [
        [
            format(obs.epc.value, "x"),
            reader_id,
            time_s,
            obs.antenna_index,
            obs.channel_index,
            phase,
            rss,
        ]
        for obs, time_s, phase, rss in zip(observations, times, phases, rsss)
    ]


def _arbitration_order(
    key: ReportKey,
) -> Tuple[float, int, int, int, float, float]:
    """:attr:`TagReport.arbitration_order` of the report with ``key``."""
    return key[2], key[1], key[3], key[4], key[5], key[6]


@dataclass
class FusedRecord:
    """Site-level state of one EPC, merged across every reader."""

    epc_value: int
    first_seen_s: float
    last_seen_s: float
    n_reports: int = 0
    #: reader id -> number of distinct reads contributed.
    reports_by_reader: Dict[int, int] = field(default_factory=dict)
    #: reader id -> simulated time of its newest read.
    last_seen_by_reader: Dict[int, float] = field(default_factory=dict)
    #: The authoritative latest sighting under the arbitration order.
    latest: Optional[TagReport] = None

    @property
    def reader_ids(self) -> List[int]:
        """Every reader that saw this tag, ascending."""
        return sorted(self.reports_by_reader)

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON shape (sorted keys, rounded floats)."""
        assert self.latest is not None
        return {
            "epc": format(self.epc_value, "x"),
            "first_seen_s": round(self.first_seen_s, TIME_PRECISION),
            "last_seen_s": round(self.last_seen_s, TIME_PRECISION),
            "n_reports": self.n_reports,
            "reports_by_reader": {
                str(reader): self.reports_by_reader[reader]
                for reader in sorted(self.reports_by_reader)
            },
            "last_seen_by_reader": {
                str(reader): round(
                    self.last_seen_by_reader[reader], TIME_PRECISION
                )
                for reader in sorted(self.last_seen_by_reader)
            },
            "latest": self.latest.to_row(),
        }


def _collector_paused(fold: Callable[..., int]) -> Callable[..., int]:
    """Run ``fold`` with the cyclic garbage collector off.

    A columnar fold allocates tens of thousands of records, reports and
    key tuples and makes no reference cycle, so any collection it
    triggers finds nothing; the one that scans the whole heap took about
    a third of the ``site_aisle`` benchmark's fold.
    """

    @functools.wraps(fold)
    def paused(*args, **kwargs) -> int:
        if not gc.isenabled():
            return fold(*args, **kwargs)
        gc.disable()
        try:
            return fold(*args, **kwargs)
        finally:
            gc.enable()

    return paused


#: Below this batch size ``ingest_many``/``ingest_rows`` use the scalar
#: ingest loop: the numpy set-up cost only pays for itself on real report
#: batches, and small batches dominate the unit/property-test workloads.
_COLUMNAR_MIN_BATCH = 32


class FusionLayer:
    """Merge tag reports from any number of readers into one inventory.

    Reports are absorbed with :meth:`ingest` / :meth:`ingest_many` /
    :meth:`ingest_rows`, whole layers with :meth:`merge`.  All of them are
    order-insensitive and replay-safe; see the module docstring for the
    exact contract and the scalar/columnar implementation note.
    """

    def __init__(self) -> None:
        #: Dedup key -> the report as ingested, or ``None`` for a report
        #: that arrived as a row: it is ``TagReport(*key)``, built only
        #: when a caller asks for it (:meth:`reports`, a record's
        #: ``latest``).
        self._reports: Dict[ReportKey, Optional[TagReport]] = {}
        self._records: Dict[int, FusedRecord] = {}
        #: reader id -> distinct reads, maintained incrementally so the
        #: health/canonicalization surfaces never rescan ``_reports``.
        self._by_reader: Dict[int, int] = {}
        #: reader id -> newest (rounded) report time ever ingested.  Any
        #: incoming report strictly newer than its reader's watermark
        #: cannot be a replay, so the columnar path skips the per-key
        #: dedup probe for entire batches of fresh reports.
        self._max_time_by_reader: Dict[int, float] = {}
        #: Cached ascending EPC order for :meth:`records`/:meth:`epc_values`
        #: (invalidated only when a *new* EPC appears — in-place record
        #: updates never change the order).
        self._epc_order: Optional[List[int]] = None

    # ------------------------------------------------------------------
    def ingest(self, report: TagReport) -> bool:
        """Absorb one report; returns False when it was already fused."""
        key = report.key
        if key in self._reports:
            return False
        self._reports[key] = report
        t = key[2]
        reader_id = report.reader_id
        self._by_reader[reader_id] = self._by_reader.get(reader_id, 0) + 1
        watermark = self._max_time_by_reader.get(reader_id)
        if watermark is None or t > watermark:
            self._max_time_by_reader[reader_id] = t
        record = self._records.get(report.epc_value)
        if record is None:
            record = FusedRecord(
                epc_value=report.epc_value, first_seen_s=t, last_seen_s=t
            )
            self._records[report.epc_value] = record
            self._epc_order = None
        record.first_seen_s = min(record.first_seen_s, t)
        record.last_seen_s = max(record.last_seen_s, t)
        record.n_reports += 1
        record.reports_by_reader[reader_id] = (
            record.reports_by_reader.get(reader_id, 0) + 1
        )
        previous = record.last_seen_by_reader.get(reader_id)
        if previous is None or t > previous:
            record.last_seen_by_reader[reader_id] = t
        if (
            record.latest is None
            or report.arbitration_order > record.latest.arbitration_order
        ):
            record.latest = report
        return True

    def ingest_many(self, reports: Iterable[TagReport]) -> int:
        """Absorb a batch; returns how many were new."""
        batch = list(reports)
        if len(batch) < _COLUMNAR_MIN_BATCH:
            return sum(1 for report in batch if self.ingest(report))
        return self._ingest_columns(
            *zip(*[report.key for report in batch]), originals=batch
        )

    def ingest_rows(self, rows: Sequence[Sequence[object]]) -> int:
        """Absorb a batch of :meth:`TagReport.to_row` rows; returns new count.

        The site fast path: row batches are what cross worker process
        boundaries and what checkpoints replay, and their fields are
        already rounded.  The columnar path parses each column once, with
        :meth:`TagReport.from_row`'s conversions, and keeps a surviving
        row as its key: no ``TagReport`` is built per row.
        """
        if len(rows) < _COLUMNAR_MIN_BATCH:
            return self.ingest_many(
                TagReport.from_row(row) for row in rows
            )
        epcs, readers, times, antennas, channels, phases, rsss = zip(*rows)
        return self._ingest_columns(
            list(map(int, epcs, repeat(16))),
            list(map(int, readers)),
            list(map(float, times)),
            list(map(int, antennas)),
            list(map(int, channels)),
            list(map(float, phases)),
            list(map(float, rsss)),
            originals=None,
        )

    # ------------------------------------------------------------------
    @_collector_paused
    def _ingest_columns(
        self,
        epc_vals: Sequence[int],
        readers: Sequence[int],
        times: Sequence[float],
        antennas: Sequence[int],
        channels: Sequence[int],
        phases: Sequence[float],
        rsss: Sequence[float],
        originals: Optional[Sequence[Optional[TagReport]]],
    ) -> int:
        """Columnar fold: vectorized dedup + arbitration over one batch.

        All float columns arrive pre-rounded to :data:`TIME_PRECISION`
        (exactly the key/arbitration precision), so numpy equality and
        ordering below agree bit-for-bit with the scalar fold's tuple
        comparisons.  ``originals`` gives the value to store for each row
        (``ingest_many``: the report; ``merge``: the other layer's value);
        when ``None`` (``ingest_rows``) every survivor is stored as its
        key alone.  A group winner stored that way becomes a record's
        ``latest`` as ``TagReport(*key)`` — identical, field for field, to
        what ``TagReport.from_row`` would have produced.
        """
        n = len(epc_vals)
        # Dense EPC ids, keyed on the value: values are 96-bit ints, too
        # wide for an int64 column, so sort/group on compact ids instead.
        uniq_epcs = list(dict.fromkeys(epc_vals))
        id_of = dict(zip(uniq_epcs, range(len(uniq_epcs))))
        epc_ids = np.fromiter(
            map(id_of.__getitem__, epc_vals), dtype=np.int64, count=n
        )
        reader_c = np.asarray(readers, dtype=np.int64)
        time_c = np.asarray(times, dtype=np.float64)
        ant_c = np.asarray(antennas, dtype=np.int64)
        chan_c = np.asarray(channels, dtype=np.int64)
        phase_c = np.asarray(phases, dtype=np.float64)
        rss_c = np.asarray(rsss, dtype=np.float64)
        # One stable sort orders the whole batch by (epc, arbitration
        # order): EPC groups become contiguous with each group's
        # arbitration winner last, and exact duplicates become adjacent
        # with the *first-ingested* copy first — the copy the scalar
        # ``ingest`` would have kept.
        order = np.lexsort(
            (rss_c, phase_c, chan_c, ant_c, reader_c, time_c, epc_ids)
        )
        eid_s = epc_ids[order]
        reader_s = reader_c[order]
        time_s = time_c[order]
        ant_s = ant_c[order]
        chan_s = chan_c[order]
        phase_s = phase_c[order]
        rss_s = rss_c[order]

        def keys_at(idx: np.ndarray) -> List[ReportKey]:
            return list(
                zip(
                    map(uniq_epcs.__getitem__, eid_s[idx].tolist()),
                    reader_s[idx].tolist(),
                    time_s[idx].tolist(),
                    ant_s[idx].tolist(),
                    chan_s[idx].tolist(),
                    phase_s[idx].tolist(),
                    rss_s[idx].tolist(),
                )
            )

        keep = np.ones(n, dtype=bool)
        if n > 1:
            same = eid_s[1:] == eid_s[:-1]
            for column in (
                reader_s, time_s, ant_s, chan_s, phase_s, rss_s
            ):
                same &= column[1:] == column[:-1]
            keep[1:] = ~same
        # Cross-batch dedup: only rows at or below their reader's time
        # watermark can possibly be replays; probe just those keys.
        fused = self._reports
        if fused:
            suspect = np.zeros(n, dtype=bool)
            for reader_id in np.unique(reader_s).tolist():
                watermark = self._max_time_by_reader.get(reader_id)
                if watermark is not None:
                    suspect |= (reader_s == reader_id) & (
                        time_s <= watermark
                    )
            suspect &= keep
            probe = np.flatnonzero(suspect)
            if probe.size:
                replayed = np.fromiter(
                    map(fused.__contains__, keys_at(probe)),
                    dtype=bool,
                    count=probe.size,
                )
                keep[probe[replayed]] = False
        new_idx = np.flatnonzero(keep)
        n_new = int(new_idx.size)
        if n_new == 0:
            return 0
        keys = keys_at(new_idx)
        if originals is None:
            stored = None
            fused.update(zip(keys, repeat(None)))
        else:
            stored = list(map(originals.__getitem__, order[new_idx].tolist()))
            fused.update(zip(keys, stored))
        eid_n = eid_s[new_idx]
        time_n = time_s[new_idx]
        reader_n = reader_s[new_idx]
        # Per-(EPC, reader) pairs, each with its count and newest time:
        # sorted EPC first, so each EPC's pairs are contiguous, ascending
        # by reader, and in the same EPC order as the row groups below.
        order2 = np.lexsort((time_n, reader_n, eid_n))
        eid_p = eid_n[order2]
        reader_p = reader_n[order2]
        pair_starts = np.flatnonzero(
            np.r_[
                True,
                (eid_p[1:] != eid_p[:-1]) | (reader_p[1:] != reader_p[:-1]),
            ]
        )
        pair_ends = np.r_[pair_starts[1:], n_new]
        pair_reader = reader_p[pair_starts].tolist()
        pair_count = (pair_ends - pair_starts).tolist()
        pair_last = time_n[order2][pair_ends - 1].tolist()
        pair_eid = eid_p[pair_starts]
        epc_pairs = np.flatnonzero(np.r_[True, pair_eid[1:] != pair_eid[:-1]])
        # Per-EPC aggregation: row groups are contiguous and time-ascending
        # in the arbitration sort, so first/last seen are the group's
        # edge elements and the winner is the group's last survivor.
        starts = np.flatnonzero(np.r_[True, eid_n[1:] != eid_n[:-1]])
        ends = np.r_[starts[1:], n_new]
        records = self._records
        for epc_value, t_min, t_max, count, last, a, b in zip(
            map(uniq_epcs.__getitem__, eid_n[starts].tolist()),
            time_n[starts].tolist(),
            time_n[ends - 1].tolist(),
            (ends - starts).tolist(),
            (ends - 1).tolist(),
            epc_pairs.tolist(),
            np.r_[epc_pairs[1:], len(pair_starts)].tolist(),
        ):
            key = keys[last]
            winner = None if stored is None else stored[last]
            record = records.get(epc_value)
            if record is None:
                if b - a == 1:  # one reader: a literal is 5x dict(zip())
                    seen = {pair_reader[a]: pair_count[a]}
                    newest = {pair_reader[a]: pair_last[a]}
                else:
                    readers_of = pair_reader[a:b]
                    seen = dict(zip(readers_of, pair_count[a:b]))
                    newest = dict(zip(readers_of, pair_last[a:b]))
                # Positional: the keyword call costs twice as much.
                records[epc_value] = FusedRecord(
                    epc_value,
                    t_min,
                    t_max,
                    count,
                    seen,
                    newest,
                    TagReport(*key) if winner is None else winner,
                )
                self._epc_order = None
                continue
            record.first_seen_s = min(record.first_seen_s, t_min)
            record.last_seen_s = max(record.last_seen_s, t_max)
            record.n_reports += count
            latest = record.latest
            if (
                latest is None
                or _arbitration_order(key) > latest.arbitration_order
            ):
                record.latest = TagReport(*key) if winner is None else winner
            seen = record.reports_by_reader
            newest = record.last_seen_by_reader
            for reader_id, n_pair, t_last in zip(
                pair_reader[a:b], pair_count[a:b], pair_last[a:b]
            ):
                seen[reader_id] = seen.get(reader_id, 0) + n_pair
                previous = newest.get(reader_id)
                if previous is None or t_last > previous:
                    newest[reader_id] = t_last
        # Per-reader totals and watermarks, over the rows sorted by
        # (reader, time).
        order3 = np.lexsort((time_n, reader_n))
        reader_r = reader_n[order3]
        reader_starts = np.flatnonzero(
            np.r_[True, reader_r[1:] != reader_r[:-1]]
        )
        reader_ends = np.r_[reader_starts[1:], n_new]
        by_reader = self._by_reader
        watermarks = self._max_time_by_reader
        for reader_id, count, t_last in zip(
            reader_r[reader_starts].tolist(),
            (reader_ends - reader_starts).tolist(),
            time_n[order3][reader_ends - 1].tolist(),
        ):
            by_reader[reader_id] = by_reader.get(reader_id, 0) + count
            watermark = watermarks.get(reader_id)
            if watermark is None or t_last > watermark:
                watermarks[reader_id] = t_last
        return n_new

    # ------------------------------------------------------------------
    def merge(self, other: "FusionLayer") -> int:
        """Fold another layer's reports into this one; returns new count."""
        if len(other._reports) < _COLUMNAR_MIN_BATCH:
            return self.ingest_many(other.reports())
        return self._ingest_columns(
            *zip(*other._reports), originals=list(other._reports.values())
        )

    # ------------------------------------------------------------------
    def reports(self) -> List[TagReport]:
        """Every distinct fused report, in arbitration order."""
        return [
            TagReport(*key) if report is None else report
            for key, report in sorted(
                self._reports.items(),
                key=lambda item: (item[0][0], _arbitration_order(item[0])),
            )
        ]

    def records(self) -> List[FusedRecord]:
        """Per-EPC fused records, ascending by EPC value."""
        if self._epc_order is None:
            self._epc_order = sorted(self._records)
        return [self._records[value] for value in self._epc_order]

    def record(self, epc_value: int) -> FusedRecord:
        """The fused record of one EPC; raises ``KeyError`` if unseen."""
        return self._records[epc_value]

    def epc_values(self) -> List[int]:
        """Every EPC the site has seen, ascending."""
        if self._epc_order is None:
            self._epc_order = sorted(self._records)
        return list(self._epc_order)

    @property
    def n_reports(self) -> int:
        """Distinct physical reads fused so far."""
        return len(self._reports)

    def reports_by_reader(self) -> Dict[int, int]:
        """Distinct reads contributed per reader id.

        Maintained incrementally on every ingest — no rescan of the
        fused report set, however often health reports or canonical
        snapshots ask.
        """
        return {
            reader: self._by_reader[reader]
            for reader in sorted(self._by_reader)
        }

    def snapshot(self) -> Dict[str, object]:
        """Canonical, byte-stable summary of the fused inventory."""
        return {
            "n_epcs": len(self._records),
            "n_reports": self.n_reports,
            "reports_by_reader": {
                str(reader): count
                for reader, count in self.reports_by_reader().items()
            },
            "records": [record.to_dict() for record in self.records()],
        }

    def copy(self) -> "FusionLayer":
        """An independent layer holding the same fused reports.

        A copy of the state itself: the fold is a function of the report
        set, so re-deriving it would give the same records.  Reports and
        ``latest`` sightings are frozen and shared; every mutable
        container is new.
        """
        duplicate = FusionLayer()
        duplicate._reports = dict(self._reports)
        duplicate._records = {
            value: FusedRecord(
                epc_value=record.epc_value,
                first_seen_s=record.first_seen_s,
                last_seen_s=record.last_seen_s,
                n_reports=record.n_reports,
                reports_by_reader=dict(record.reports_by_reader),
                last_seen_by_reader=dict(record.last_seen_by_reader),
                latest=record.latest,
            )
            for value, record in self._records.items()
        }
        duplicate._by_reader = dict(self._by_reader)
        duplicate._max_time_by_reader = dict(self._max_time_by_reader)
        return duplicate
