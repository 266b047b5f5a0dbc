"""Phase I: the motion assessor.

Maintains one Gaussian-mixture immobility stack per (tag, antenna, channel)
shard — COTS readers report phase against an arbitrary per-channel LO
reference, so a single stack across channels would see spurious jumps on
every hop.  The per-cycle verdict for a tag aggregates its shard verdicts:
by default a tag is *moving* if any shard saw an unmatched reading during
the cycle ("any" rule; a 1 cm displacement is often visible from only the
best-placed antenna).

Life-cycle rules from Section 4.3 are implemented: stacks are created on a
tag's first appearance (so an unseen tag starts "in motion" — it has no
reliable modes), and stacks of tags unseen for ``expire_after_s`` are
dropped to bound memory.

The stacks are stored column by column: each shard is one row of
fixed-width arrays, ``params.max_modes`` columns wide, holding the fields a
:class:`~repro.core.gmm.GaussianMixtureStack` keeps per mode (column ``j``
of a row is ``stack.modes[j]``) plus the mode count and update count.  Rows
are numbered in first-seen order.  :meth:`MotionAssessor.observe_all`
settles a whole reading batch with one call to the compiled update in
:mod:`repro.gen2._ckernel`, which walks the readings in arrival order
exactly as ``GaussianMixtureStack.update`` would.  Without it (no C
compiler, ``REPRO_CALENDAR_CKERNEL=0``, or a failed load-time probe) each
row the batch touches is rebuilt as a stack, updated by
``GaussianMixtureStack.update`` and written back: the same bytes, slower.
"""

from __future__ import annotations

import ctypes
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.gmm import (
    _PI,
    _SQRT_TWO_PI,
    GaussianMixtureStack,
    GaussianMode,
    GmmParams,
)
from repro.gen2 import _ckernel
from repro.radio.measurement import TagObservation
from repro.util.circular import TWO_PI

ShardKey = Tuple[int, int, int]  # (epc value, antenna index, channel index)

#: The per-mode columns, in :class:`GaussianMode` field order.
_MODE_FIELDS = ("mean", "std", "weight", "n_matches", "current_run", "best_run")


@dataclass
class TagAssessment:
    """Per-tag verdict for one cycle."""

    epc_value: int
    n_readings: int
    n_motion_flags: int
    moving: bool


@dataclass
class AssessorStats:
    """Aggregate counters (useful for dashboards and tests)."""

    n_tags: int = 0
    n_shards: int = 0
    n_expired: int = 0


class MotionAssessor:
    """Streaming Phase I motion assessment over tag observations."""

    def __init__(
        self,
        params: Optional[GmmParams] = None,
        vote_rule: str = "any",
        expire_after_s: float = 60.0,
        key_by_channel: bool = True,
    ) -> None:
        if vote_rule not in ("any", "majority"):
            raise ValueError(f"unknown vote rule {vote_rule!r}")
        self.params = params or GmmParams.for_phase()
        self.vote_rule = vote_rule
        self.expire_after_s = expire_after_s
        self.key_by_channel = key_by_channel
        self._rows: Dict[ShardKey, int] = {}  # shard key -> row, first seen first
        self._last_seen: Dict[int, float] = {}  # epc value -> last read time
        self._cycle_flags: Dict[int, List[bool]] = {}
        self.stats = AssessorStats()

        p = self.params
        self._kernel = _ckernel.load_gmm_kernel()
        self._dpar = np.array(
            [
                TWO_PI,
                _PI,
                _SQRT_TWO_PI,
                p.learning_rate,
                p.match_threshold,
                p.initial_std,
                p.initial_weight,
                p.min_std,
                p.reliable_weight,
                p.reliable_std,
                p.max_update_step,
            ]
        )
        self._ipar = np.array([p.max_modes, p.reliable_run], dtype=np.int64)
        self._scratch = np.empty(p.max_modes)
        self._col_ptrs = (ctypes.c_void_p * 9)()
        self._kernel_args = (
            self._dpar.ctypes.data,
            self._ipar.ctypes.data,
            ctypes.addressof(self._col_ptrs),
        )
        self._columns: List[np.ndarray] = []
        self._resize(64)

    # ------------------------------------------------------------------
    # Columnar shard storage
    # ------------------------------------------------------------------
    def _resize(self, capacity: int) -> None:
        """Reallocate every column for ``capacity`` rows, keeping the rows
        in use, and repoint the kernel's column table."""
        k = self.params.max_modes
        n = len(self._rows)
        columns = [np.zeros((capacity, k)) for _ in range(3)]
        columns += [np.zeros((capacity, k), dtype=np.int64) for _ in range(3)]
        columns += [np.zeros(capacity, dtype=np.int64) for _ in range(2)]
        for new, old in zip(columns, self._columns):
            new[:n] = old[:n]
        self._columns = columns
        self._n_modes, self._n_updates = columns[6:]
        for i, column in enumerate((*columns, self._scratch)):
            self._col_ptrs[i] = column.ctypes.data

    def _add_row(self, key: ShardKey) -> int:
        row = len(self._rows)
        if row == len(self._n_modes):
            self._resize(2 * row)
        self._n_modes[row] = 0
        self._n_updates[row] = 0
        self._rows[key] = row
        return row

    def _stack(self, row: int) -> GaussianMixtureStack:
        """A mixture stack holding a copy of the shard in ``row``."""
        k = int(self._n_modes[row])
        stack = GaussianMixtureStack(self.params, circular=True)
        stack.n_updates = int(self._n_updates[row])
        stack.modes = [
            GaussianMode(*fields)
            for fields in zip(
                *(column[row, :k].tolist() for column in self._columns[:6])
            )
        ]
        return stack

    def _store(self, row: int, stack: GaussianMixtureStack) -> None:
        """Write ``stack`` into ``row``."""
        modes = stack.modes
        k = len(modes)
        if k > self.params.max_modes:
            raise ValueError(
                f"shard has {k} modes, more than max_modes={self.params.max_modes}"
            )
        self._n_modes[row] = k
        self._n_updates[row] = stack.n_updates
        for column, name in zip(self._columns, _MODE_FIELDS):
            column[row, :k] = [getattr(mode, name) for mode in modes]

    def shards(self) -> Iterator[Tuple[ShardKey, GaussianMixtureStack]]:
        """Each shard's key and a copy of its stack, in first-seen order."""
        for key, row in self._rows.items():
            yield key, self._stack(row)

    def load_shard(self, key: ShardKey, stack: GaussianMixtureStack) -> None:
        """Set the shard ``key`` (appended when new) to ``stack``."""
        row = self._rows.get(key)
        self._store(self._add_row(key) if row is None else row, stack)

    # ------------------------------------------------------------------
    def observe(self, obs: TagObservation) -> bool:
        """Feed one reading; returns whether it looked stationary."""
        return self.observe_all((obs,))[0]

    def observe_all(self, observations: Iterable[TagObservation]) -> List[bool]:
        """Feed a batch of readings in arrival order.

        Updates each reading's shard, its tag's cycle votes (a reading that
        is not stationary is a motion vote) and last-seen time; returns
        each reading's stationary verdict.
        """
        rows_get = self._rows.get
        by_channel = self.key_by_channel
        rows: List[int] = []
        phases: List[float] = []
        epcs: List[int] = []
        times: List[float] = []
        # Unpacked in TagObservation field order (cheaper than attributes).
        for epc, time_s, phase_rad, _, antenna, channel in observations:
            epc_value = epc.value
            key = (epc_value, antenna, channel if by_channel else 0)
            row = rows_get(key)
            if row is None:
                row = self._add_row(key)
            rows.append(row)
            phases.append(phase_rad)
            epcs.append(epc_value)
            times.append(time_s)
        if not rows:
            return []
        verdicts = self._settle(rows, phases)
        self._last_seen.update(zip(epcs, times))
        cycle = self._cycle_flags
        for epc_value, stationary in zip(epcs, verdicts):
            flags = cycle.get(epc_value)
            if flags is None:
                cycle[epc_value] = flags = []
            flags.append(not stationary)
        return verdicts

    def _settle(self, rows: List[int], phases: List[float]) -> List[bool]:
        """Update the shards ``rows`` with ``phases``, reading by reading."""
        if self._kernel is not None:
            row_ids = array("q", rows)
            values = array("d", phases)
            out = array("B", bytes(len(rows)))
            self._kernel(
                *self._kernel_args,
                len(rows),
                row_ids.buffer_info()[0],
                values.buffer_info()[0],
                out.buffer_info()[0],
            )
            return memoryview(out).cast("?").tolist()
        # Fallback: the Python update on each touched shard, written back
        # once (shards are independent, so batching them is exact).
        stacks: Dict[int, GaussianMixtureStack] = {}
        verdicts = []
        for row, value in zip(rows, phases):
            stack = stacks.get(row)
            if stack is None:
                stacks[row] = stack = self._stack(row)
            verdicts.append(stack.update(value))
        for row, stack in stacks.items():
            self._store(row, stack)
        return verdicts

    # ------------------------------------------------------------------
    def assess(self) -> Dict[int, TagAssessment]:
        """Close the cycle: per-tag verdicts from the accumulated votes.

        Clears the per-cycle vote buffer; learning state persists across
        cycles.
        """
        verdicts: Dict[int, TagAssessment] = {}
        for epc_value, flags in self._cycle_flags.items():
            n_flags = sum(flags)
            if self.vote_rule == "any":
                moving = n_flags > 0
            else:
                moving = n_flags * 2 > len(flags)
            verdicts[epc_value] = TagAssessment(
                epc_value=epc_value,
                n_readings=len(flags),
                n_motion_flags=n_flags,
                moving=moving,
            )
        self._cycle_flags.clear()
        self.stats.n_tags = len(self._last_seen)
        self.stats.n_shards = len(self._rows)
        return verdicts

    # ------------------------------------------------------------------
    def expire(self, now_s: float) -> int:
        """Drop models of tags unseen for ``expire_after_s``; returns count."""
        stale = {
            epc
            for epc, last in self._last_seen.items()
            if now_s - last > self.expire_after_s
        }
        if not stale:
            return 0
        kept = [
            (key, row) for key, row in self._rows.items() if key[0] not in stale
        ]
        index = [row for _, row in kept]
        for column in self._columns:
            column[: len(index)] = column[index]
        self._rows = {key: i for i, (key, _) in enumerate(kept)}
        for epc in stale:
            del self._last_seen[epc]
            self._cycle_flags.pop(epc, None)
        self.stats.n_expired += len(stale)
        return len(stale)
