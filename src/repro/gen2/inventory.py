"""Slot-accurate inventory-round engine.

Simulates framed-slotted-ALOHA rounds over an abstract tag population.  The
engine works on integer tag indices; binding indices to EPCs, RF observations
and antennas happens one layer up in :mod:`repro.reader`.

Two session models are supported:

- ``with_replacement=True`` (default, session-S0 behaviour): every
  participating tag contends in every frame, even after it has been read;
  the reader reports each distinct tag once per round (round-level
  de-duplication, as an ImpinJ ROReportSpec configures) and the round is
  complete when every distinct tag has been seen.  The slot count is then the
  coupon-collector quantity ``n * e * H_n ~ n e ln n`` — exactly the paper's
  inventory-cost model (Definition 1), and the reason their measured
  per-round time fits ``tau_0 + n e tau_bar ln n``.

- ``with_replacement=False`` (session-S1 behaviour): a read tag flips its
  inventoried flag and stays silent for the rest of the round, giving the
  leaner ``~ n e`` slot count of an idealised dedicated session.  Used by the
  ablation tests.

The per-frame slot draw is vectorised (one ``numpy`` draw per frame).  Two
engines consume it:

- ``engine="calendar"`` (the default) settles whole rounds through the
  compiled event-calendar kernel (:mod:`repro.gen2.calendar`): one C call
  per round draws from the engine generator's ``bitgen_t`` exactly as the
  slot walk draws through numpy, so Python-level work is O(rounds) instead
  of O(slots).  The round's reads stay the kernel's columns
  (:class:`ReadColumns`); :attr:`InventoryLog.reads` builds ``TagRead``
  tuples from them only when asked.  Rounds the kernel cannot express —
  custom strategies, frame-level tracing, or a missing C compiler
  (``REPRO_CALENDAR_CKERNEL=0``) — run on the sequential slot walk; both
  leave the generator at the same position, so kernel and slot-walk rounds
  interleave on one stream.
- ``engine="reference"`` is that sequential slot walk with plain
  ``Generator.integers``/``Generator.random`` draws, kept as the
  differential-testing oracle (see ``tests/gen2/test_calendar_engine.py``).

Both produce bit-identical results for identical seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.gen2.aloha import FixedQ, FrameStrategy, QAdaptive, SlotOutcome
from repro.gen2.timing import LinkTiming
from repro.obs.tracer import get_tracer
from repro.util.rng import SeedLike, make_rng


class TagRead(NamedTuple):
    """One reported EPC read of a tag, in simulated time.

    A named tuple rather than a (frozen) dataclass: reads are produced in
    the hot settlement loops of every engine, and tuple construction is
    several times cheaper than a frozen dataclass ``__init__`` while
    keeping immutability and field access identical.
    """

    tag_index: int
    time_s: float
    round_index: int
    slot_in_round: int


class ReadColumns:
    """One round's reads as columns, in read order.

    ``tag_index`` (int64), ``time_s`` (float64) and ``slot_in_round``
    (int64) are numpy arrays of equal length; ``round_index`` is the
    round's.  The calendar engine hands its rounds up in this form, so the
    scene settles reports from the kernel's own columns and no
    :class:`TagRead` is built unless a caller asks for one.  The arrays
    are never written after construction.
    """

    __slots__ = ("tag_index", "time_s", "slot_in_round", "round_index")

    def __init__(
        self,
        tag_index: np.ndarray,
        time_s: np.ndarray,
        slot_in_round: np.ndarray,
        round_index: int,
    ) -> None:
        self.tag_index = tag_index
        self.time_s = time_s
        self.slot_in_round = slot_in_round
        self.round_index = round_index

    @classmethod
    def from_reads(cls, reads: Sequence[TagRead]) -> "ReadColumns":
        """Columns of one round's ``TagRead`` records."""
        if not reads:
            empty = np.empty(0, dtype=np.int64)
            return cls(empty, np.empty(0), empty, 0)
        tags, times, rounds, slots = zip(*reads)
        return cls(
            np.array(tags, dtype=np.int64),
            np.array(times, dtype=np.float64),
            np.array(slots, dtype=np.int64),
            rounds[0],
        )

    def __len__(self) -> int:
        return len(self.tag_index)

    def records(self) -> List[TagRead]:
        """The reads as ``TagRead`` tuples (built at C level)."""
        k = len(self.tag_index)
        # ``tuple.__new__`` skips the NamedTuple's Python-level
        # ``__new__``; the records are ordinary ``TagRead`` instances.
        return list(
            map(
                tuple.__new__,
                repeat(TagRead, k),
                zip(
                    self.tag_index.tolist(),
                    self.time_s.tolist(),
                    repeat(self.round_index, k),
                    self.slot_in_round.tolist(),
                ),
            )
        )


@dataclass(eq=False)
class InventoryLog:
    """Everything that happened during one or more inventory rounds."""

    n_empty: int = 0
    n_single: int = 0
    n_collision: int = 0
    n_duplicate: int = 0
    n_lost: int = 0
    n_rounds: int = 0
    n_adjusts: int = 0
    start_time_s: float = 0.0
    end_time_s: float = 0.0
    truncated: bool = False
    #: The reads in read order: :class:`ReadColumns` of rounds the kernel
    #: settled and ``TagRead`` lists of slot-walk rounds.  :attr:`reads`
    #: joins them into one list the first time it is asked for.
    _chunks: list = field(default_factory=list, repr=False)

    @property
    def reads(self) -> List[TagRead]:
        """Every reported read, in read order."""
        chunks = self._chunks
        if len(chunks) == 1 and type(chunks[0]) is list:
            return chunks[0]
        reads: List[TagRead] = []
        for chunk in chunks:
            reads.extend(chunk if type(chunk) is list else chunk.records())
        self._chunks = [reads]
        return reads

    def read_columns(self) -> ReadColumns:
        """The reads of a one-round log as columns: the kernel's own when
        it settled the round, else built from the ``TagRead`` records."""
        chunks = self._chunks
        if len(chunks) == 1 and type(chunks[0]) is ReadColumns:
            return chunks[0]
        return ReadColumns.from_reads(self.reads)

    @property
    def duration_s(self) -> float:
        return self.end_time_s - self.start_time_s

    @property
    def n_slots(self) -> int:
        return self.n_empty + self.n_single + self.n_collision

    def merge(self, other: "InventoryLog") -> None:
        """Fold a later log into this one (rounds must be consecutive)."""
        chunks = self._chunks
        for chunk in other._chunks:
            # Columns are never written; a list is copied, as extending did.
            chunks.append(chunk if type(chunk) is ReadColumns else list(chunk))
        self.n_empty += other.n_empty
        self.n_single += other.n_single
        self.n_collision += other.n_collision
        self.n_duplicate += other.n_duplicate
        self.n_lost += other.n_lost
        self.n_rounds += other.n_rounds
        self.n_adjusts += other.n_adjusts
        self.end_time_s = other.end_time_s
        self.truncated = self.truncated or other.truncated


class InventoryEngine:
    """Runs inventory rounds with a pluggable frame strategy.

    Parameters
    ----------
    timing:
        Link timing profile providing slot/command durations.
    strategy_factory:
        Zero-argument callable returning a *fresh* :class:`FrameStrategy`
        per round (strategies are stateful).
    rng:
        Seed or generator for slot draws.
    with_replacement:
        Session model; see the module docstring.
    engine:
        ``"calendar"`` (compiled event-calendar kernel, the default) or
        ``"reference"`` (sequential slot walk, the test oracle).  Both
        produce identical results for identical seeds.
    """

    #: Hard cap on slots per round; prevents pathological strategies (e.g.
    #: FixedQ(0) over many tags, which collides forever) from hanging.
    MAX_SLOTS_PER_ROUND = 500_000

    def __init__(
        self,
        timing: LinkTiming,
        strategy_factory: Callable[[], FrameStrategy],
        rng: SeedLike = None,
        with_replacement: bool = True,
        read_loss_probability: float = 0.0,
        engine: str = "calendar",
    ) -> None:
        if not 0.0 <= read_loss_probability < 1.0:
            raise ValueError("read loss probability must be in [0, 1)")
        if engine not in ("calendar", "reference"):
            raise ValueError(
                f"engine must be 'calendar' or 'reference', got {engine!r}"
            )
        self.engine = engine
        self.timing = timing
        self.strategy_factory = strategy_factory
        self.rng = make_rng(rng)
        self.with_replacement = with_replacement
        #: Probability that a singleton slot's EPC fails CRC at the reader
        #: (low SNR, interference).  The slot's air time is spent, no report
        #: is produced, and the tag stays uninventoried — it retries in a
        #: later frame, exactly like real link-level loss.
        self.read_loss_probability = read_loss_probability
        self._round_counter = 0
        #: Lazily created compiled-kernel state for ``engine="calendar"``
        #: (:class:`repro.gen2.calendar.CalendarKernel`).
        self._cal = None

    # ------------------------------------------------------------------
    def run_round(
        self,
        participant_ids: Sequence[int],
        start_time_s: float = 0.0,
        max_duration_s: Optional[float] = None,
    ) -> InventoryLog:
        """Run one inventory round that reports every participant once.

        The round ends when all participants have been identified (the real
        reader detects this via a run of empty slots at Q=0; that detection
        time is part of the profile's ``round_overhead_s``), when
        ``max_duration_s`` elapses, or when the slot cap trips.
        """
        if self.engine == "calendar":
            return self._run_round_calendar(
                participant_ids, start_time_s, max_duration_s
            )
        return self._run_round_reference(
            participant_ids, start_time_s, max_duration_s
        )

    # ------------------------------------------------------------------
    def _run_round_calendar(
        self,
        participant_ids: Sequence[int],
        start_time_s: float,
        max_duration_s: Optional[float],
    ) -> InventoryLog:
        """Settle the whole round through the compiled calendar kernel.

        One C call per round draws from the engine generator's
        ``bitgen_t`` exactly as the reference walk draws through numpy, so
        reads, counters, timestamps and the generator's end position are
        bit-identical to the reference engine.  Rounds the kernel cannot
        express run on :meth:`_run_round_reference` (an already-created
        strategy is passed through, preserving the one-factory-call-per-round
        contract).
        """
        cal = self._cal
        if cal is None:
            from repro.gen2.calendar import CalendarKernel

            cal = self._cal = CalendarKernel()
        tracer = get_tracer()
        traced = tracer.enabled
        if cal.fn is None or (traced and tracer.frame_detail):
            return self._run_round_reference(
                participant_ids, start_time_s, max_duration_s
            )

        timing = self.timing
        if cal.timing_src is not timing:
            cal.bind_timing(timing)
        t_startup = cal.t_startup
        t = start_time_s + t_startup
        n = len(participant_ids)
        if n == 0:
            # Mirrors the slot walk: the strategy factory is never called,
            # the reader pays the start-up cost and probes one empty slot.
            round_index = self._round_counter
            self._round_counter += 1
            end_t = t + cal.t_empty
            log = InventoryLog(start_time_s=start_time_s, end_time_s=end_t)
            log.n_rounds = 1
            log.n_empty = 1
            if traced:
                span = tracer.begin(
                    "round",
                    t=start_time_s,
                    category="gen2",
                    round_index=round_index,
                    n_participants=0,
                    startup_s=t_startup,
                )
                tracer.end(
                    span,
                    t=end_t,
                    n_slots=1,
                    n_empty=1,
                    n_single=0,
                    n_collision=0,
                    n_adjusts=0,
                    n_reads=0,
                    n_frames=0,
                    truncated=False,
                )
            return log

        strategy = self.strategy_factory()
        strategy_type = type(strategy)
        if strategy_type is QAdaptive:
            strat_code = 1
            q_const = strategy.c
        elif strategy_type is FixedQ:
            strat_code = 0
            q_const = 0.0
        else:
            # Custom strategies draw straight from the generator.
            return self._run_round_reference(
                participant_ids, start_time_s, max_duration_s, strategy=strategy
            )
        first_frame = max(1, strategy.start_round(n))
        q0 = first_frame.bit_length() - 1

        round_index = self._round_counter
        self._round_counter += 1
        round_span = None
        if traced:
            round_span = tracer.begin(
                "round",
                t=start_time_s,
                category="gen2",
                round_index=round_index,
                n_participants=n,
                startup_s=t_startup,
            )

        dpar = cal.dpar
        ipar = cal.ipar
        dpar[0] = t
        dpar[1] = (
            start_time_s + max_duration_s
            if max_duration_s is not None
            else float("inf")
        )
        dpar[7] = q_const
        dpar[8] = self.read_loss_probability
        ipar[0] = n
        ipar[1] = strat_code
        ipar[2] = q0
        ipar[3] = 1 if self.with_replacement else 0
        ipar[4] = self.MAX_SLOTS_PER_ROUND

        cal.prepare(participant_ids)
        # Looked up every round: ``self.rng`` may be reassigned between
        # rounds, and numpy caches the ctypes view, so this is cheap.  The
        # lock is held as numpy's own ``Generator`` methods hold it: ctypes
        # releases the GIL for the call, and the kernel advances the state.
        bit_generator = self.rng.bit_generator
        with bit_generator.lock:
            cal.fn(
                cal.dpar_ptr,
                cal.ipar_ptr,
                bit_generator.ctypes.bit_generator,
                cal.seen_ptr,
                cal.counts_ptr,
                cal.owner_ptr,
                cal.unseen_ptr,
                cal.out_i_ptr,
                cal.out_d_ptr,
                cal.ids_ptr,
                cal.read_tag_ptr,
                cal.read_slot_ptr,
                cal.read_time_ptr,
            )

        (
            n_empty,
            n_single,
            n_collision,
            n_duplicate,
            n_adjusts,
            n_frames,
            truncated,
            n_reads,
            n_slots,
            n_lost,
        ) = cal.out_i_np.tolist()
        end_t = cal.out_d[0]
        log = InventoryLog(start_time_s=start_time_s, end_time_s=end_t)
        log.n_rounds = 1
        log.n_empty = n_empty
        log.n_single = n_single
        log.n_collision = n_collision
        log.n_duplicate = n_duplicate
        log.n_lost = n_lost
        log.n_adjusts = n_adjusts
        log.truncated = bool(truncated)
        if n_reads:
            log._chunks.append(
                ReadColumns(
                    cal.read_tag_np[:n_reads].copy(),
                    cal.read_time_np[:n_reads].copy(),
                    cal.read_slot_np[:n_reads].copy(),
                    round_index,
                )
            )
        if round_span is not None:
            tracer.end(
                round_span,
                t=end_t,
                n_slots=n_slots,
                n_empty=n_empty,
                n_single=n_single,
                n_collision=n_collision,
                n_adjusts=n_adjusts,
                n_reads=n_reads,
                n_frames=n_frames,
                truncated=log.truncated,
            )
        return log

    # ------------------------------------------------------------------
    def _run_round_reference(
        self,
        participant_ids: Sequence[int],
        start_time_s: float,
        max_duration_s: Optional[float],
        strategy: Optional[FrameStrategy] = None,
    ) -> InventoryLog:
        """Sequential slot walk: the oracle, and the calendar's fallback.

        Draws straight from the generator: one ``integers`` call per frame
        and one ``random`` call per singleton when link loss is on.
        """
        log = InventoryLog(start_time_s=start_time_s, end_time_s=start_time_s)
        log.n_rounds = 1
        round_index = self._round_counter
        self._round_counter += 1

        n_frames = 0
        tracer = get_tracer()
        traced = tracer.enabled
        frame_traced = traced and tracer.frame_detail
        round_span = None
        if traced:
            round_span = tracer.begin(
                "round",
                t=start_time_s,
                category="gen2",
                round_index=round_index,
                n_participants=len(participant_ids),
                startup_s=self.timing.startup_cost,
            )

        def _finish(end_s: float) -> InventoryLog:
            log.end_time_s = end_s
            if round_span is not None:
                tracer.end(
                    round_span,
                    t=end_s,
                    n_slots=log.n_slots,
                    n_empty=log.n_empty,
                    n_single=log.n_single,
                    n_collision=log.n_collision,
                    n_adjusts=log.n_adjusts,
                    n_reads=len(log.reads),
                    n_frames=n_frames,
                    truncated=log.truncated,
                )
            return log

        t = start_time_s + self.timing.startup_cost
        deadline = (
            start_time_s + max_duration_s if max_duration_s is not None else None
        )

        ids = np.asarray(participant_ids, dtype=np.int64)
        if ids.size == 0:
            # The reader still pays the start-up cost and probes one slot.
            log.n_empty = 1
            return _finish(t + self.timing.empty_slot_duration)

        if strategy is None:
            strategy = self.strategy_factory()
        rng = self.rng
        frame_length = max(1, strategy.start_round(int(ids.size)))
        seen_mask = np.zeros(ids.size, dtype=bool)
        slot_counter_in_round = 0

        timing = self.timing
        t_empty = timing.empty_slot_duration
        t_single = timing.success_slot_duration
        t_collision = timing.collision_slot_duration
        t_adjust = timing.query_adjust_duration
        t_query = timing.query_duration

        while not seen_mask.all():
            n_frames += 1
            if self.with_replacement:
                contenders = np.arange(ids.size)
            else:
                contenders = np.flatnonzero(~seen_mask)
            draws = rng.integers(0, frame_length, size=contenders.size)
            counts = np.bincount(draws, minlength=frame_length)
            # Map each singleton slot to the position of its tag.
            slot_owner = np.full(frame_length, -1, dtype=np.int64)
            singles = counts[draws] == 1
            slot_owner[draws[singles]] = contenders[singles]

            frame_span = None
            if frame_traced:
                frame_span = tracer.begin(
                    "frame",
                    t=t,
                    category="gen2",
                    frame_length=int(frame_length),
                    n_contenders=int(contenders.size),
                )
            slots_before = log.n_slots
            adjust_to: Optional[int] = None
            for slot in range(frame_length):
                if (deadline is not None and t >= deadline) or (
                    log.n_slots >= self.MAX_SLOTS_PER_ROUND
                ):
                    log.truncated = True
                    break

                occupancy = counts[slot]
                if occupancy == 0:
                    t += t_empty
                    log.n_empty += 1
                    outcome = SlotOutcome.EMPTY
                elif occupancy == 1:
                    owner = slot_owner[slot]
                    t += t_single
                    log.n_single += 1
                    outcome = SlotOutcome.SINGLE
                    if (
                        self.read_loss_probability > 0.0
                        and rng.random() < self.read_loss_probability
                    ):
                        # EPC failed CRC: air time spent, nothing decoded.
                        log.n_lost += 1
                    elif not seen_mask[owner]:
                        read = TagRead(
                            tag_index=int(ids[owner]),
                            time_s=t,
                            round_index=round_index,
                            slot_in_round=slot_counter_in_round,
                        )
                        seen_mask[owner] = True
                        log.reads.append(read)
                    else:
                        # Re-read of an already-inventoried tag (S0 mode);
                        # air time is spent but the report is de-duplicated.
                        log.n_duplicate += 1
                else:
                    t += t_collision
                    log.n_collision += 1
                    outcome = SlotOutcome.COLLISION

                slot_counter_in_round += 1
                request = strategy.on_slot(outcome)
                if request is not None:
                    if request == -1:
                        # Restart sentinel (ideal DFSA): new frame sized to
                        # the updated remaining-tag count, free of charge —
                        # this is the genie-aided idealisation.
                        remaining = (
                            ids.size
                            if self.with_replacement
                            else int((~seen_mask).sum())
                        )
                        adjust_to = max(1, strategy.next_frame(remaining))
                    else:
                        t += t_adjust
                        log.n_adjusts += 1
                        adjust_to = max(1, int(request))
                    break
                if seen_mask.all():
                    break

            if frame_span is not None:
                tracer.end(
                    frame_span,
                    t=t,
                    n_slots=log.n_slots - slots_before,
                )
            if log.truncated:
                return _finish(t)

            if adjust_to is not None:
                frame_length = adjust_to
            elif not seen_mask.all():
                # Frame exhausted: new Query command starts the next one.
                t += t_query
                remaining = (
                    ids.size if self.with_replacement else int((~seen_mask).sum())
                )
                frame_length = max(1, strategy.next_frame(remaining))

        return _finish(t)

    # ------------------------------------------------------------------
