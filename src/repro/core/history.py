"""Reading history database.

Every reading from either phase is delivered to upper applications *and*
recorded here (Fig 5/6: "all readings should be delivered to upper
applications and contribute to the history database").  The history also
computes the evaluation's central metric, the Individual Reading Rate (IRR):
readings of one tag per second over an interval.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.radio.measurement import TagObservation


@dataclass(frozen=True)
class IrrSample:
    """IRR of one tag over one measurement interval."""

    epc_value: int
    n_reads: int
    interval_s: float

    @property
    def irr_hz(self) -> float:
        if self.interval_s <= 0:
            raise ValueError("interval must be positive")
        return self.n_reads / self.interval_s


class ReadingHistory:
    """Append-only store of observations, indexed by tag."""

    def __init__(self, max_per_tag: Optional[int] = None) -> None:
        if max_per_tag is not None and max_per_tag < 1:
            raise ValueError("max_per_tag must be positive when set")
        self.max_per_tag = max_per_tag
        self._by_tag: Dict[int, List[TagObservation]] = defaultdict(list)
        self.total_reads = 0
        #: Registry carried over from a checkpoint: epc value -> (reads,
        #: last-seen time) accumulated before the restart.  Raw
        #: observations are not rehydrated — only the per-tag ledger.
        self._baseline: Dict[int, Tuple[int, float]] = {}

    # ------------------------------------------------------------------
    def add(self, obs: TagObservation) -> None:
        """Record one observation."""
        bucket = self._by_tag[obs.epc.value]
        bucket.append(obs)
        self.total_reads += 1
        if self.max_per_tag is not None and len(bucket) > self.max_per_tag:
            del bucket[: len(bucket) - self.max_per_tag]

    # ------------------------------------------------------------------
    def epc_values(self) -> List[int]:
        """All tag identities seen so far (this run or before), sorted."""
        return sorted(set(self._by_tag) | set(self._baseline))

    def observations(self, epc_value: int) -> List[TagObservation]:
        """All stored observations of one tag."""
        return list(self._by_tag.get(epc_value, ()))

    def count(self, epc_value: int) -> int:
        """Total readings of one tag, including any checkpointed baseline."""
        base = self._baseline.get(epc_value, (0, 0.0))[0]
        return base + len(self._by_tag.get(epc_value, ()))

    def counts(self) -> Dict[int, int]:
        """Readings per tag (baseline included), as a dict."""
        return {epc: self.count(epc) for epc in self.epc_values()}

    def last_seen(self, epc_value: int) -> Optional[float]:
        """Timestamp of the tag's latest reading, or None."""
        bucket = self._by_tag.get(epc_value)
        if bucket:
            return bucket[-1].time_s
        if epc_value in self._baseline:
            return self._baseline[epc_value][1]
        return None

    # ------------------------------------------------------------------
    def registry(self) -> Dict[str, Dict[str, float]]:
        """The per-tag ledger (reads + last seen), JSON-friendly.

        This is what a checkpoint persists instead of raw observations:
        enough to answer "has this tag ever been seen, and when last?"
        after a restart without rehydrating megabytes of readings.
        """
        return {
            f"{epc:x}": {
                "n_reads": self.count(epc),
                "last_seen_s": self.last_seen(epc),
            }
            for epc in self.epc_values()
        }

    def load_registry(self, registry: Dict[str, Dict[str, float]]) -> None:
        """Install a checkpointed ledger as the baseline for this history."""
        self._baseline = {
            int(epc, 16): (
                int(record["n_reads"]),
                float(record["last_seen_s"]),
            )
            for epc, record in registry.items()
        }
        self.total_reads += sum(n for n, _ in self._baseline.values())

    # ------------------------------------------------------------------
    def reads_in_window(
        self, epc_value: int, t0: float, t1: float
    ) -> List[TagObservation]:
        """Observations of one tag inside [t0, t1)."""
        if t1 <= t0:
            raise ValueError("window must have positive width")
        return [
            obs
            for obs in self._by_tag.get(epc_value, ())
            if t0 <= obs.time_s < t1
        ]

    def irr(self, epc_value: int, t0: float, t1: float) -> IrrSample:
        """IRR of one tag over [t0, t1)."""
        reads = self.reads_in_window(epc_value, t0, t1)
        return IrrSample(
            epc_value=epc_value, n_reads=len(reads), interval_s=t1 - t0
        )

    def clear(self) -> None:
        """Drop everything (a fresh deployment)."""
        self._by_tag.clear()
        self._baseline.clear()
        self.total_reads = 0
