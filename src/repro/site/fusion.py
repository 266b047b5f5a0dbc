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
:meth:`ingest_rows` go through a vectorized arbitration-order
``lexsort`` instead — dedup, per-EPC aggregation and winner selection
all happen on numpy columns, and ``TagReport`` objects are only
materialised for reports that actually survive.  Both paths drive the
exact same internal state, so every downstream surface
(:meth:`FusionLayer.snapshot`, :meth:`reports`, :meth:`records`) is
byte-identical to a plain ``ingest`` loop — the differential property
tests in ``tests/site/test_fusion_columnar.py`` pin that across
arbitrary orders, duplications and interleaved merges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
        self._reports: Dict[ReportKey, TagReport] = {}
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
            [r.epc_value for r in batch],
            [r.reader_id for r in batch],
            [round(r.time_s, TIME_PRECISION) for r in batch],
            [r.antenna_index for r in batch],
            [r.channel_index for r in batch],
            [round(r.phase_rad, TIME_PRECISION) for r in batch],
            [round(r.rss_dbm, TIME_PRECISION) for r in batch],
            originals=batch,
        )

    def ingest_rows(self, rows: Sequence[Sequence[object]]) -> int:
        """Absorb a batch of :meth:`TagReport.to_row` rows; returns new count.

        The site fast path: row batches are what cross worker process
        boundaries and what checkpoints replay, and their fields are
        already rounded — so the columnar path ingests them without
        materialising a ``TagReport`` per row (only surviving reports are
        built; a pure replay builds none at all).
        """
        if len(rows) < _COLUMNAR_MIN_BATCH:
            return self.ingest_many(
                TagReport.from_row(row) for row in rows
            )
        return self._ingest_columns(
            [int(row[0], 16) for row in rows],
            [int(row[1]) for row in rows],
            [float(row[2]) for row in rows],
            [int(row[3]) for row in rows],
            [int(row[4]) for row in rows],
            [float(row[5]) for row in rows],
            [float(row[6]) for row in rows],
            originals=None,
        )

    # ------------------------------------------------------------------
    def _ingest_columns(
        self,
        epc_vals: List[int],
        readers: List[int],
        times: List[float],
        antennas: List[int],
        channels: List[int],
        phases: List[float],
        rsss: List[float],
        originals: Optional[List[TagReport]],
    ) -> int:
        """Columnar fold: vectorized dedup + arbitration over one batch.

        All float columns arrive pre-rounded to :data:`TIME_PRECISION`
        (exactly the key/arbitration precision), so numpy equality and
        ordering below agree bit-for-bit with the scalar fold's tuple
        comparisons.  ``originals`` supplies the report objects to store
        (``ingest_many``); when ``None`` (``ingest_rows``) survivors are
        rebuilt from their key fields — identical, field for field, to
        what ``TagReport.from_row`` would have produced.
        """
        n = len(epc_vals)
        # Dense EPC ids: values are 96-bit ints, too wide for an int64
        # column, so sort/group on compact ids instead.
        id_of: Dict[int, int] = {}
        uniq_epcs: List[int] = []
        epc_ids = np.empty(n, dtype=np.int64)
        for j, value in enumerate(epc_vals):
            i = id_of.get(value)
            if i is None:
                i = id_of[value] = len(uniq_epcs)
                uniq_epcs.append(value)
            epc_ids[j] = i
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
        if self._reports:
            suspect = np.zeros(n, dtype=bool)
            for reader_id in np.unique(reader_s).tolist():
                watermark = self._max_time_by_reader.get(reader_id)
                if watermark is not None:
                    suspect |= (reader_s == reader_id) & (
                        time_s <= watermark
                    )
            suspect &= keep
            for j in np.nonzero(suspect)[0].tolist():
                key = (
                    uniq_epcs[eid_s[j]],
                    int(reader_s[j]),
                    float(time_s[j]),
                    int(ant_s[j]),
                    int(chan_s[j]),
                    float(phase_s[j]),
                    float(rss_s[j]),
                )
                if key in self._reports:
                    keep[j] = False
        new_idx = np.nonzero(keep)[0]
        n_new = int(new_idx.size)
        if n_new == 0:
            return 0
        eid_n = eid_s[new_idx]
        time_n = time_s[new_idx]
        reader_n = reader_s[new_idx]
        keys = list(
            zip(
                (uniq_epcs[i] for i in eid_n.tolist()),
                reader_n.tolist(),
                time_n.tolist(),
                ant_s[new_idx].tolist(),
                chan_s[new_idx].tolist(),
                phase_s[new_idx].tolist(),
                rss_s[new_idx].tolist(),
            )
        )
        if originals is not None:
            survivors = [originals[k] for k in order[new_idx].tolist()]
        else:
            survivors = [TagReport(*key) for key in keys]
        self._reports.update(zip(keys, survivors))
        # Per-EPC aggregation: groups are contiguous and time-ascending
        # in the arbitration sort, so first/last seen are the group's
        # edge elements and the winner is the group's last survivor.
        boundary = np.nonzero(np.r_[True, eid_n[1:] != eid_n[:-1]])[0]
        group_end = np.r_[boundary[1:], n_new]
        touched: Dict[int, FusedRecord] = {}
        for a, b in zip(boundary.tolist(), group_end.tolist()):
            epc_value = uniq_epcs[eid_n[a]]
            t_min = float(time_n[a])
            t_max = float(time_n[b - 1])
            record = self._records.get(epc_value)
            if record is None:
                record = FusedRecord(
                    epc_value=epc_value,
                    first_seen_s=t_min,
                    last_seen_s=t_max,
                )
                self._records[epc_value] = record
                self._epc_order = None
            record.first_seen_s = min(record.first_seen_s, t_min)
            record.last_seen_s = max(record.last_seen_s, t_max)
            record.n_reports += b - a
            winner = survivors[b - 1]
            if (
                record.latest is None
                or winner.arbitration_order
                > record.latest.arbitration_order
            ):
                record.latest = winner
            touched[epc_value] = record
        # Per-(EPC, reader) aggregation: a second grouped pass gives each
        # pair's count and newest time in O(pairs), not O(rows).
        order2 = np.lexsort((time_n, reader_n, eid_n))
        eid_p = eid_n[order2]
        reader_p = reader_n[order2]
        time_p = time_n[order2]
        starts2 = np.nonzero(
            np.r_[
                True,
                (eid_p[1:] != eid_p[:-1]) | (reader_p[1:] != reader_p[:-1]),
            ]
        )[0]
        ends2 = np.r_[starts2[1:], n_new]
        for a, b in zip(starts2.tolist(), ends2.tolist()):
            epc_value = uniq_epcs[eid_p[a]]
            reader_id = int(reader_p[a])
            t_last = float(time_p[b - 1])
            record = touched[epc_value]
            record.reports_by_reader[reader_id] = (
                record.reports_by_reader.get(reader_id, 0) + (b - a)
            )
            previous = record.last_seen_by_reader.get(reader_id)
            if previous is None or t_last > previous:
                record.last_seen_by_reader[reader_id] = t_last
            self._by_reader[reader_id] = (
                self._by_reader.get(reader_id, 0) + (b - a)
            )
            watermark = self._max_time_by_reader.get(reader_id)
            if watermark is None or t_last > watermark:
                self._max_time_by_reader[reader_id] = t_last
        return n_new

    # ------------------------------------------------------------------
    def merge(self, other: "FusionLayer") -> int:
        """Fold another layer's reports into this one; returns new count."""
        return self.ingest_many(other.reports())

    # ------------------------------------------------------------------
    def reports(self) -> List[TagReport]:
        """Every distinct fused report, in arbitration order."""
        return sorted(
            self._reports.values(),
            key=lambda r: (r.epc_value,) + r.arbitration_order,
        )

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
        """An independent layer holding the same fused reports."""
        duplicate = FusionLayer()
        duplicate.ingest_many(self._reports.values())
        return duplicate
