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
  ablation benchmarks.

The per-frame slot draw is vectorised (one ``numpy`` draw per frame).  Three
slot-consumption engines share that draw:

- ``engine="fast"`` asks the strategy for its mid-frame reaction at
  frame granularity (:meth:`FrameStrategy.scan_frame`) and then settles the
  whole processed prefix with array ops — cumulative-sum time assignment,
  vectorised dedup/loss draws — falling back to a sequential slot walk for
  frames where a deadline or the slot cap can trip, or where link loss
  interacts with a possible early round finish.  RNG consumption order is
  identical to the reference engine, so seeded runs (including the golden
  traces) are byte-for-byte unchanged.
- ``engine="reference"`` consumes slot outcomes one at a time exactly as the
  original implementation did; it is kept as the differential-testing oracle
  (see ``tests/gen2/test_fast_engine.py``) and can be forced globally via the
  ``REPRO_INVENTORY_ENGINE`` environment variable.
- ``engine="calendar"`` (the default) settles whole rounds through the
  compiled event-calendar kernel (:mod:`repro.gen2.calendar`): one C call
  per round replays the same PCG64 lane stream, so Python-level work is
  O(rounds) instead of O(slots).  Rounds the kernel cannot express — link
  loss, custom strategies, frame-level tracing, non-PCG64 generators, or a
  missing C compiler — transparently fall back to the fast path, which is
  bit-identical.  See ``tests/gen2/test_calendar_engine.py``.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

#: The raw-word slot-draw shortcut reconstructs numpy's 32-bit Lemire lanes
#: from 64-bit PCG64 output words, which requires a little-endian view.
_LITTLE_ENDIAN = sys.byteorder == "little"

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


@dataclass
class InventoryLog:
    """Everything that happened during one or more inventory rounds."""

    reads: List[TagRead] = field(default_factory=list)
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

    @property
    def duration_s(self) -> float:
        return self.end_time_s - self.start_time_s

    @property
    def n_slots(self) -> int:
        return self.n_empty + self.n_single + self.n_collision

    def merge(self, other: "InventoryLog") -> None:
        """Fold a later log into this one (rounds must be consecutive)."""
        self.reads.extend(other.reads)
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
        ``"calendar"`` (compiled event-calendar kernel, the default),
        ``"fast"`` (frame-granular vectorised path) or ``"reference"``
        (sequential slot walk).  All three produce identical results for
        identical seeds; ``None`` reads the ``REPRO_INVENTORY_ENGINE``
        environment variable and defaults to ``"calendar"``.
    """

    #: Hard cap on slots per round; prevents pathological strategies (e.g.
    #: FixedQ(0) over many tags, which collides forever) from hanging.
    MAX_SLOTS_PER_ROUND = 500_000

    #: Processed frame prefixes at least this long use full array ops; the
    #: short frames Q-adaptive produces are cheaper as a plain loop.
    VECTOR_MIN_SLOTS = 32

    def __init__(
        self,
        timing: LinkTiming,
        strategy_factory: Callable[[], FrameStrategy],
        rng: SeedLike = None,
        with_replacement: bool = True,
        read_loss_probability: float = 0.0,
        engine: Optional[str] = None,
    ) -> None:
        if not 0.0 <= read_loss_probability < 1.0:
            raise ValueError("read loss probability must be in [0, 1)")
        if engine is None:
            engine = os.environ.get("REPRO_INVENTORY_ENGINE", "calendar")
        if engine not in ("calendar", "fast", "reference"):
            raise ValueError(
                f"engine must be 'calendar', 'fast' or 'reference', got {engine!r}"
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
        #: Mirror of numpy's internal uint32 cache for the raw-word slot-draw
        #: shortcut: ``Generator.integers`` with a bound below 2**32 consumes
        #: 32-bit halves of each 64-bit PCG64 word and buffers an unused high
        #: half across *calls*.  The fast path replays draws from
        #: ``random_raw``, so it must carry that spare lane itself to stay
        #: stream-compatible with the reference engine.
        self._spare_lane: Optional[int] = None
        #: Bulk-prefetched 32-bit lanes (loss-free runs only; see
        #: :meth:`_lane_fill`).  Kept both as an ndarray (large frames slice
        #: it) and a plain list (small frames iterate it).
        self._lane_arr: Optional[np.ndarray] = None
        self._lane_list: Optional[List[int]] = None
        self._lane_pos = 0
        self._lane_len = 0
        #: Bulk-prefetched raw 64-bit words (lossy runs only; see
        #: :meth:`_word_fill`).  When link loss is on the slot stream mixes
        #: frame-draw lanes with one whole ``Generator.random()`` word per
        #: singleton, so pre-fetching must happen at word granularity and
        #: every consumer — frame draws, loss draws, the calendar kernel —
        #: must drain this buffer in order.
        self._word_arr: Optional[np.ndarray] = None
        self._word_pos = 0
        self._word_len = 0
        #: Lazily created compiled-kernel state for ``engine="calendar"``
        #: (:class:`repro.gen2.calendar.CalendarKernel`).
        self._cal = None

    # ------------------------------------------------------------------
    def run_round(
        self,
        participant_ids: Sequence[int],
        start_time_s: float = 0.0,
        max_duration_s: Optional[float] = None,
        on_read: Optional[Callable[[TagRead], None]] = None,
    ) -> InventoryLog:
        """Run one inventory round that reports every participant once.

        The round ends when all participants have been identified (the real
        reader detects this via a run of empty slots at Q=0; that detection
        time is part of the profile's ``round_overhead_s``), when
        ``max_duration_s`` elapses, or when the slot cap trips.
        """
        if self.engine == "calendar":
            return self._run_round_calendar(
                participant_ids, start_time_s, max_duration_s, on_read
            )
        if self.engine == "reference":
            return self._run_round_reference(
                participant_ids, start_time_s, max_duration_s, on_read
            )
        return self._run_round_fast(
            participant_ids, start_time_s, max_duration_s, on_read
        )

    # ------------------------------------------------------------------
    def _run_round_calendar(
        self,
        participant_ids: Sequence[int],
        start_time_s: float,
        max_duration_s: Optional[float],
        on_read: Optional[Callable[[TagRead], None]],
    ) -> InventoryLog:
        """Settle the whole round through the compiled calendar kernel.

        One C call per round replays the engine's buffered PCG64 lane
        stream, so results — reads, counters, timestamps and the RNG
        position afterwards — are bit-identical to the fast and reference
        engines.  Rounds the kernel cannot express fall back to
        :meth:`_run_round_fast` (with the already-created strategy passed
        through, preserving the one-factory-call-per-round contract).
        """
        cal = self._cal
        if cal is None:
            from repro.gen2.calendar import CalendarKernel

            cal = self._cal = CalendarKernel()
        tracer = get_tracer()
        traced = tracer.enabled
        bit_generator = self.rng.bit_generator
        if (
            cal.fn is None
            or on_read is not None
            or (traced and tracer.frame_detail)
            or not _LITTLE_ENDIAN
            or not isinstance(bit_generator, np.random.PCG64)
        ):
            return self._run_round_fast(
                participant_ids, start_time_s, max_duration_s, on_read
            )

        timing = self.timing
        if cal.timing_src is not timing:
            cal.bind_timing(timing)
        t_startup = cal.t_startup
        t = start_time_s + t_startup
        n = len(participant_ids)
        if n == 0:
            # Mirrors both engines: the strategy factory is never called,
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
            return self._run_round_fast(
                participant_ids,
                start_time_s,
                max_duration_s,
                on_read,
                _strategy=strategy,
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
        p_loss = self.read_loss_probability
        dpar[8] = p_loss
        ipar[0] = n
        ipar[1] = strat_code
        ipar[2] = q0
        ipar[3] = 1 if self.with_replacement else 0
        ipar[4] = self.MAX_SLOTS_PER_ROUND
        spare_in = self._spare_lane
        ipar[5] = -1 if spare_in is None else spare_in

        cal.prepare(n)
        fn = cal.fn
        raw_draw = bit_generator.random_raw
        # With loss on, the kernel consumes raw 64-bit words (frame lanes +
        # one word per singleton loss draw) from the shared lossy word
        # buffer; loss-free rounds keep the historical pre-split lane
        # buffer.  Both are re-read each retry because a refill resets the
        # position to zero.
        lossy = p_loss > 0.0
        while True:
            if lossy:
                buf = self._word_arr
                buf_ptr = buf.ctypes.data if buf is not None else 0
                buf_len = self._word_len
                buf_pos = self._word_pos
            else:
                buf = self._lane_arr
                buf_ptr = buf.ctypes.data if buf is not None else 0
                buf_len = self._lane_len
                buf_pos = self._lane_pos
            rc = fn(
                cal.dpar_ptr,
                cal.ipar_ptr,
                buf_ptr,
                buf_len,
                buf_pos,
                cal.seen_ptr,
                cal.draws_ptr,
                cal.counts_ptr,
                cal.owner_ptr,
                cal.unseen_ptr,
                cal.out_i_ptr,
                cal.out_d_ptr,
                cal.read_pos_ptr,
                cal.read_slot_ptr,
                cal.read_time_ptr,
            )
            if rc == 0:
                break
            # Buffer ran dry mid-round: refill (keeping everything from the
            # round's start position) and re-run — the kernel committed
            # nothing, so the retry is idempotent.  The kernel only reports
            # its need *through the stalled frame*, so growing geometrically
            # (rather than by a fixed slack) keeps the number of full-round
            # re-walks logarithmic even for with-replacement rounds that
            # consume millions of words; the overshoot is never wasted —
            # leftovers carry into subsequent rounds.
            need = cal.out_i[0]
            if lossy:
                self._word_fill(raw_draw, need * 2 + 16384)
            else:
                self._lane_fill(raw_draw, need * 2 + 16384)

        (
            pos_out,
            n_empty,
            n_single,
            n_collision,
            n_duplicate,
            n_adjusts,
            n_frames,
            truncated,
            n_reads,
            n_slots,
            spare_out,
            n_lost,
        ) = cal.out_i_np.tolist()
        if lossy:
            self._word_pos = pos_out
            self._spare_lane = None if spare_out < 0 else spare_out
        else:
            self._lane_pos = pos_out
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
            if type(participant_ids) is list:
                ids_list = participant_ids
            else:
                ids_list = np.asarray(participant_ids, dtype=np.int64).tolist()
            log.reads = [
                TagRead(ids_list[p_i], time_s, round_index, slot)
                for p_i, slot, time_s in zip(
                    cal.read_pos_np[:n_reads].tolist(),
                    cal.read_slot_np[:n_reads].tolist(),
                    cal.read_time_np[:n_reads].tolist(),
                )
            ]
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
        on_read: Optional[Callable[[TagRead], None]],
    ) -> InventoryLog:
        """Sequential slot walk: the original engine, kept as the oracle."""
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

        strategy = self.strategy_factory()
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
            draws = self.rng.integers(0, frame_length, size=contenders.size)
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
                        and self.rng.random() < self.read_loss_probability
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
                        if on_read is not None:
                            on_read(read)
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
    def _lane_fill(self, raw_draw, min_lanes: int) -> None:
        """Grow the lane buffer so at least ``min_lanes`` are unconsumed.

        Only used when link loss is off: the slot stream is then consumed
        exclusively by frame draws, so 64-bit words can be pre-fetched in
        bulk without perturbing the draw sequence the reference engine
        produces one frame at a time.
        """
        arr = self._lane_arr
        left = arr[self._lane_pos :] if arr is not None else None
        have = int(left.size) if left is not None else 0
        n_words = max(8192, ((min_lanes - have) + 1) >> 1)
        fresh = raw_draw(n_words).view(np.uint32)
        arr = np.concatenate((left, fresh)) if have else fresh
        self._lane_arr = arr
        # The Python-list mirror is only read by the fast engine's
        # small-frame loop; materialise it there on demand so the calendar
        # kernel (which consumes lanes straight from the array) never pays
        # a full ``tolist`` per refill.
        self._lane_list = None
        self._lane_pos = 0
        self._lane_len = int(arr.size)

    def _word_fill(self, raw_draw, min_words: int) -> None:
        """Grow the raw 64-bit word buffer to at least ``min_words`` unconsumed.

        The lossy counterpart of :meth:`_lane_fill`: with link loss on, the
        slot stream interleaves frame-draw lanes with one whole word per
        singleton loss draw, so pre-fetching is only sound at word
        granularity with *every* consumer draining this buffer in order.
        Only the calendar kernel's refill-and-retry loop bulk-fills; the
        fast path's helpers below drain leftovers first and then draw
        *exactly* what they need, so a pure fast-engine run never builds a
        buffer and leaves the generator at the same stream position as the
        reference engine (a contract the differential tests pin).
        """
        arr = self._word_arr
        pos = self._word_pos
        have = self._word_len - pos
        want = max(8192, min_words - have)
        cap = int(arr.size) if arr is not None else 0
        if arr is None or have + want > cap:
            # Grow (amortised doubling) and compact the leftover to the
            # front; between growths fresh words append in place, so the
            # per-fill cost is one generator call, not a full-buffer copy.
            new_cap = max(cap * 2, have + want, 16384)
            fresh_arr = np.empty(new_cap, dtype=np.uint64)
            if have:
                fresh_arr[:have] = arr[pos : self._word_len]
            self._word_arr = arr = fresh_arr
            self._word_pos = pos = 0
            self._word_len = have
        elif pos and pos + have + want > cap:
            arr[:have] = arr[pos : self._word_len]
            self._word_pos = pos = 0
            self._word_len = have
        end = self._word_len
        arr[end : end + want] = raw_draw(want)
        self._word_len = end + want

    def _take_words(self, raw_draw, n: int) -> np.ndarray:
        """Consume ``n`` raw 64-bit words: buffered leftovers first, then an
        exact draw — never over-pulling the generator."""
        pos = self._word_pos
        have = self._word_len - pos
        if have <= 0:
            return raw_draw(n)
        if have >= n:
            self._word_pos = pos + n
            return self._word_arr[pos : pos + n]
        self._word_pos = self._word_len
        return np.concatenate(
            (self._word_arr[pos : self._word_len], raw_draw(n - have))
        )

    def _take_loss_doubles(self, raw_draw, n: int) -> np.ndarray:
        """``n`` uniform doubles replayed from raw words.

        ``(word >> 11) * 2^-53`` is numpy's exact uint64→double conversion,
        so the values match ``Generator.random(n)`` bit for bit while the
        words come out of the shared buffer.
        """
        return (self._take_words(raw_draw, n) >> np.uint64(11)) * 2.0**-53

    def _loss_draw(self, raw_draw) -> float:
        """One uniform double replayed from raw words (scalar form)."""
        pos = self._word_pos
        if pos >= self._word_len:
            word = int(raw_draw())
        else:
            self._word_pos = pos + 1
            word = int(self._word_arr[pos])
        return (word >> 11) * 2.0**-53

    def _raw_frame_draw(self, raw_draw, size: int, shift: int) -> np.ndarray:
        """One frame draw replayed from raw words with the spare-lane carry.

        Used when link loss interleaves scalar ``rng.random()`` draws with
        the frame draws: each frame must consume exactly the lanes
        ``Generator.integers`` would have, with loss draws spending whole
        words in between.  Words come from the shared lossy word buffer
        (:meth:`_word_fill`), which keeps fast-path rounds and calendar
        kernel rounds on one stream no matter how they interleave.
        """
        spare = self._spare_lane
        if spare is None:
            n_words = (size + 1) >> 1
            lanes = self._take_words(raw_draw, n_words).view(np.uint32)
            self._spare_lane = int(lanes[-1]) if (n_words << 1) > size else None
            return lanes[:size] >> shift
        if size == 1:
            # The buffered high lane from an earlier odd-sized draw is
            # consumed first, like numpy's uint32 cache.
            self._spare_lane = None
            return np.array([spare >> shift], dtype=np.int64)
        need = size - 1
        n_words = (need + 1) >> 1
        fresh = self._take_words(raw_draw, n_words).view(np.uint32)
        self._spare_lane = int(fresh[-1]) if (n_words << 1) > need else None
        lanes = np.empty(size, dtype=np.uint32)
        lanes[0] = spare
        lanes[1:] = fresh[:need]
        return lanes >> shift

    # ------------------------------------------------------------------
    def _run_round_fast(
        self,
        participant_ids: Sequence[int],
        start_time_s: float,
        max_duration_s: Optional[float],
        on_read: Optional[Callable[[TagRead], None]],
        _strategy: Optional[FrameStrategy] = None,
    ) -> InventoryLog:
        """Frame-granular engine: identical results, far fewer Python slots.

        Frames shorter than :attr:`VECTOR_MIN_SLOTS` stay in plain Python
        end to end; for the stock strategies (Q-adaptive, FixedQ) the
        controller arithmetic is fused into the slot walk so each slot is
        touched exactly once.  Longer frames obtain the strategy reaction
        via :meth:`FrameStrategy.scan_frame` and settle the processed
        prefix with array ops — cumulative-sum time assignment, vectorised
        dedup/loss draws — falling back to a sequential walk where a
        deadline or the slot cap can trip, or where link loss interacts
        with a possible early round finish.  All RNG draws happen in the
        same order and batch shape as the reference engine, so seeded runs
        match it bit for bit.
        """
        log = InventoryLog(start_time_s=start_time_s, end_time_s=start_time_s)
        log.n_rounds = 1
        round_index = self._round_counter
        self._round_counter += 1

        timing = self.timing
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
                startup_s=timing.startup_cost,
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

        t = start_time_s + timing.startup_cost
        deadline = (
            start_time_s + max_duration_s if max_duration_s is not None else None
        )
        # +inf compares like "no deadline", which keeps the per-slot check
        # down to one comparison.
        deadline_t = deadline if deadline is not None else float("inf")

        ids = np.asarray(participant_ids, dtype=np.int64)
        if ids.size == 0:
            log.n_empty = 1
            return _finish(t + timing.empty_slot_duration)

        # The calendar engine probes the strategy type before deciding to
        # fall back here; it passes the instance through so the factory is
        # still called exactly once per round.
        strategy = self.strategy_factory() if _strategy is None else _strategy
        n = int(ids.size)
        frame_length = max(1, strategy.start_round(n))
        seen = np.zeros(n, dtype=bool)
        n_seen = 0
        slot_counter = 0

        with_replacement = self.with_replacement
        p_loss = self.read_loss_probability
        rng = self.rng
        t_empty = timing.empty_slot_duration
        t_single = timing.success_slot_duration
        t_collision = timing.collision_slot_duration
        t_adjust = timing.query_adjust_duration
        t_query = timing.query_duration
        dur_by_code = np.array([t_empty, t_single, t_collision])
        max_slots = self.MAX_SLOTS_PER_ROUND
        vector_min = self.VECTOR_MIN_SLOTS
        ids_list = ids.tolist()
        reads = log.reads
        scan_frame = strategy.scan_frame
        next_frame = strategy.next_frame
        # ``Generator.integers`` carries ~7 us of Python-level overhead per
        # call, which dominates short adaptive frames.  For power-of-two
        # frame lengths numpy's bounded generator is rejection-free: it
        # splits each 64-bit PCG64 word into two 32-bit lanes (low half
        # first), keeps the top q bits of each lane, and buffers an unused
        # high lane across calls.  Replaying that from ``random_raw`` with a
        # spare-lane carry yields identical values and identical stream
        # positions; with the carry the lane stream is *contiguous*, so when
        # nothing else consumes this generator (no link-loss draws) whole
        # chunks of words can be pre-fetched into a buffer.  The replay is
        # only engaged for strategies whose frames are powers of two by
        # construction: once a non-power-of-two frame hits ``rng.integers``
        # with a spare pending, the python-side carry and numpy's internal
        # cache could not be reconciled, so IdealDFSA (and unknown
        # subclasses) keep the plain call throughout.
        strategy_type = type(strategy)
        fused_qa = strategy_type is QAdaptive
        fused_fixed = strategy_type is FixedQ
        bit_generator = rng.bit_generator
        raw_draw = (
            bit_generator.random_raw
            if _LITTLE_ENDIAN
            and (fused_qa or fused_fixed)
            and isinstance(bit_generator, np.random.PCG64)
            else None
        )
        buffered = raw_draw is not None and p_loss == 0.0
        if p_loss > 0.0 and raw_draw is not None:
            # Loss draws replay whole words from the shared lossy buffer so
            # they stay in lock-step with the frame draws (and with any
            # calendar-kernel rounds consuming the same stream).
            _loss_draw = self._loss_draw

            def loss_rand() -> float:
                return _loss_draw(raw_draw)

        else:
            loss_rand = rng.random

        n_empty = n_single = n_collision = n_duplicate = n_lost = n_adjusts = 0

        if with_replacement:
            positions = None
            positions_list = None
            size = n
        while n_seen < n:
            n_frames += 1
            if not with_replacement:
                positions = np.flatnonzero(~seen)
                size = int(positions.size)
            n_slots_before = slot_counter
            truncated = False
            exit_cut = False
            request = None

            frame_span = None
            if frame_traced:
                frame_span = tracer.begin(
                    "frame",
                    t=t,
                    category="gen2",
                    frame_length=int(frame_length),
                    n_contenders=size,
                )

            if frame_length < vector_min:
                # ---- small frame: plain Python end to end ----------------
                if frame_length == 1:
                    # integers(0, 1, ...) consumes no stream words, so the
                    # draw is skipped outright.
                    draws_list = None
                    counts_list = [size]
                else:
                    shift = 33 - frame_length.bit_length()
                    if buffered:
                        pos0 = self._lane_pos
                        if pos0 + size > self._lane_len:
                            self._lane_fill(raw_draw, size)
                            pos0 = 0
                        self._lane_pos = pos0 + size
                        lane_list = self._lane_list
                        if lane_list is None:
                            lane_list = self._lane_arr.tolist()
                            self._lane_list = lane_list
                        draws_list = [
                            lane >> shift
                            for lane in lane_list[pos0 : pos0 + size]
                        ]
                    elif raw_draw is not None:
                        draws_list = self._raw_frame_draw(
                            raw_draw, size, shift
                        ).tolist()
                    else:
                        draws_list = rng.integers(
                            0, frame_length, size=size
                        ).tolist()
                    counts_list = [0] * frame_length
                    for d in draws_list:
                        counts_list[d] += 1
                if positions is not None:
                    positions_list = positions.tolist()

                if fused_qa:
                    # Fused walk: Q-algorithm arithmetic inlined into the
                    # settle loop (mirrors QAdaptive.on_slot bit for bit).
                    qfp = strategy.qfp
                    q = strategy.q
                    c = strategy.c
                    for slot, occupancy in enumerate(counts_list):
                        if t >= deadline_t or slot_counter >= max_slots:
                            truncated = True
                            break
                        if occupancy == 1:
                            t += t_single
                            n_single += 1
                            if p_loss > 0.0 and loss_rand() < p_loss:
                                n_lost += 1
                                slot_counter += 1
                                continue
                            j = 0 if draws_list is None else draws_list.index(slot)
                            p_i = j if positions_list is None else positions_list[j]
                            if seen[p_i]:
                                n_duplicate += 1
                                slot_counter += 1
                                continue
                            read = TagRead(
                                tag_index=ids_list[p_i],
                                time_s=t,
                                round_index=round_index,
                                slot_in_round=slot_counter,
                            )
                            seen[p_i] = True
                            n_seen += 1
                            reads.append(read)
                            if on_read is not None:
                                on_read(read)
                            slot_counter += 1
                            if n_seen >= n:
                                break
                            continue
                        if occupancy == 0:
                            t += t_empty
                            n_empty += 1
                            qfp -= c
                            if qfp < 0.0:
                                qfp = 0.0
                        else:
                            t += t_collision
                            n_collision += 1
                            qfp += c
                            if qfp > 15.0:
                                qfp = 15.0
                        slot_counter += 1
                        new_q = round(qfp)
                        if new_q != q:
                            q = new_q
                            request = 1 << q
                            exit_cut = True
                            break
                    strategy.qfp = qfp
                    strategy.q = q
                    # Inline tail: the next frame length is 1 << q by
                    # construction, so the next_frame call is skipped.
                    if exit_cut:
                        t += t_adjust
                        n_adjusts += 1
                        frame_length = request
                    if frame_span is not None:
                        tracer.end(
                            frame_span,
                            t=t,
                            n_slots=slot_counter - n_slots_before,
                        )
                    if truncated:
                        log.truncated = True
                        break
                    if n_seen >= n:
                        break
                    if not exit_cut:
                        t += t_query
                        frame_length = 1 << q
                    continue
                elif fused_fixed:
                    # FixedQ never adjusts: the walk is pure settlement.
                    for slot, occupancy in enumerate(counts_list):
                        if t >= deadline_t or slot_counter >= max_slots:
                            truncated = True
                            break
                        if occupancy == 1:
                            t += t_single
                            n_single += 1
                            if p_loss > 0.0 and loss_rand() < p_loss:
                                n_lost += 1
                                slot_counter += 1
                                continue
                            j = 0 if draws_list is None else draws_list.index(slot)
                            p_i = j if positions_list is None else positions_list[j]
                            if seen[p_i]:
                                n_duplicate += 1
                                slot_counter += 1
                                continue
                            read = TagRead(
                                tag_index=ids_list[p_i],
                                time_s=t,
                                round_index=round_index,
                                slot_in_round=slot_counter,
                            )
                            seen[p_i] = True
                            n_seen += 1
                            reads.append(read)
                            if on_read is not None:
                                on_read(read)
                            slot_counter += 1
                            if n_seen >= n:
                                break
                            continue
                        if occupancy == 0:
                            t += t_empty
                            n_empty += 1
                        else:
                            t += t_collision
                            n_collision += 1
                        slot_counter += 1
                    # Inline tail: FixedQ never adjusts and the frame
                    # length never changes.
                    if frame_span is not None:
                        tracer.end(
                            frame_span,
                            t=t,
                            n_slots=slot_counter - n_slots_before,
                        )
                    if truncated:
                        log.truncated = True
                        break
                    if n_seen >= n:
                        break
                    t += t_query
                    continue
                else:
                    # Generic strategy: frame-granular reaction, then a walk
                    # without per-slot strategy calls.
                    if draws_list is None:
                        draws_list = [0] * size
                    result = scan_frame(counts_list)
                    if result is None:
                        cut_idx = -1
                        limit = frame_length - 1
                    else:
                        cut_idx, request = result
                        cut_idx = int(cut_idx)
                        limit = cut_idx
                    occupancies = counts_list[: limit + 1]
                    owner_by_slot = {}
                    if 1 in occupancies:
                        if positions_list is None:
                            for j, d in enumerate(draws_list):
                                if d <= limit and counts_list[d] == 1:
                                    owner_by_slot[d] = j
                        else:
                            for j, d in enumerate(draws_list):
                                if d <= limit and counts_list[d] == 1:
                                    owner_by_slot[d] = positions_list[j]
                    for slot, occupancy in enumerate(occupancies):
                        if t >= deadline_t or slot_counter >= max_slots:
                            truncated = True
                            break
                        if occupancy == 0:
                            t += t_empty
                            n_empty += 1
                        elif occupancy == 1:
                            t += t_single
                            n_single += 1
                            if p_loss > 0.0 and loss_rand() < p_loss:
                                n_lost += 1
                            else:
                                p_i = owner_by_slot[slot]
                                if seen[p_i]:
                                    n_duplicate += 1
                                else:
                                    read = TagRead(
                                        tag_index=ids_list[p_i],
                                        time_s=t,
                                        round_index=round_index,
                                        slot_in_round=slot_counter,
                                    )
                                    seen[p_i] = True
                                    n_seen += 1
                                    reads.append(read)
                                    if on_read is not None:
                                        on_read(read)
                        else:
                            t += t_collision
                            n_collision += 1
                        slot_counter += 1
                        if slot == cut_idx:
                            exit_cut = True
                            break
                        if n_seen >= n:
                            break
            else:
                # ---- large frame: ndarray path ---------------------------
                if buffered:
                    shift = 33 - frame_length.bit_length()
                    pos0 = self._lane_pos
                    if pos0 + size > self._lane_len:
                        self._lane_fill(raw_draw, size)
                        pos0 = 0
                    self._lane_pos = pos0 + size
                    draws = self._lane_arr[pos0 : pos0 + size] >> shift
                elif raw_draw is not None:
                    draws = self._raw_frame_draw(
                        raw_draw, size, 33 - frame_length.bit_length()
                    )
                else:
                    draws = rng.integers(0, frame_length, size=size)
                counts = np.bincount(draws, minlength=frame_length)

                # The strategy reacts to the whole frame at once; state ends
                # up exactly as if on_slot ran for every processed slot.
                result = scan_frame(counts)
                if result is None:
                    cut_idx = -1
                    limit = frame_length - 1
                else:
                    cut_idx, request = result
                    cut_idx = int(cut_idx)
                    limit = cut_idx

                # --- vectorised settlement of the processed prefix --------
                use_vector = (
                    limit + 1 >= vector_min and n_slots_before + limit < max_slots
                )
                finishing = False
                end_eff = limit
                if use_vector:
                    # The round can end inside this frame only if every
                    # unseen tag sits alone in a slot of the processed
                    # prefix.
                    unseen_draws = draws[~seen] if positions is None else draws
                    if bool((counts[unseen_draws] == 1).all()):
                        k_finish = int(unseen_draws.max())
                        if k_finish <= limit:
                            if p_loss > 0.0:
                                # A lost read keeps the round alive and the
                                # sequential engine draws losses slot by slot
                                # up to wherever the round actually ends —
                                # replay it exactly rather than guessing.
                                use_vector = False
                            else:
                                finishing = True
                                end_eff = k_finish
                if use_vector:
                    codes = np.minimum(counts[: end_eff + 1], 2)
                    durations = dur_by_code[codes]
                    # Prepending t keeps the accumulation order identical to
                    # the sequential `t += duration` chain (cumsum sums left
                    # to right), so slot times match the reference bit for
                    # bit.
                    slot_end_times = np.cumsum(np.concatenate(((t,), durations)))
                    if deadline is not None and not bool(
                        slot_end_times[end_eff] < deadline_t
                    ):
                        use_vector = False  # a slot start crosses the deadline

                if use_vector:
                    occ_hist = np.bincount(codes, minlength=3)
                    n_empty += int(occ_hist[0])
                    n_single += int(occ_hist[1])
                    n_collision += int(occ_hist[2])

                    # Singleton slots of the prefix, in slot order.
                    sing_idx = np.flatnonzero(
                        (counts[draws] == 1) & (draws <= end_eff)
                    )
                    slot_of = draws[sing_idx]
                    order = np.argsort(slot_of, kind="stable")
                    sing_slots = slot_of[order]
                    owner_pos = (
                        sing_idx[order]
                        if positions is None
                        else positions[sing_idx[order]]
                    )
                    if p_loss > 0.0 and owner_pos.size:
                        if raw_draw is not None:
                            u = self._take_loss_doubles(
                                raw_draw, int(owner_pos.size)
                            )
                        else:
                            u = rng.random(owner_pos.size)
                        lost_mask = u < p_loss
                        n_lost += int(lost_mask.sum())
                        kept = ~lost_mask
                        owner_pos = owner_pos[kept]
                        sing_slots = sing_slots[kept]
                    new_mask = ~seen[owner_pos]
                    n_duplicate += int(owner_pos.size - new_mask.sum())
                    read_pos = owner_pos[new_mask]
                    if read_pos.size:
                        read_slots = sing_slots[new_mask]
                        seen[read_pos] = True
                        n_seen += int(read_pos.size)
                        read_times = slot_end_times[read_slots + 1].tolist()
                        base = slot_counter
                        for p_i, slot, time_s in zip(
                            read_pos.tolist(), read_slots.tolist(), read_times
                        ):
                            read = TagRead(
                                tag_index=ids_list[p_i],
                                time_s=time_s,
                                round_index=round_index,
                                slot_in_round=base + slot,
                            )
                            reads.append(read)
                            if on_read is not None:
                                on_read(read)
                    slot_counter += end_eff + 1
                    t = float(slot_end_times[-1])

                    # A mid-frame request is honoured unless the round
                    # finished on an earlier slot (then the adjust slot was
                    # never reached).
                    applied_adjust = cut_idx >= 0 and (
                        not finishing or cut_idx == end_eff
                    )
                    if applied_adjust:
                        if request == -1:
                            remaining = n if with_replacement else n - n_seen
                            frame_length = max(1, next_frame(remaining))
                        else:
                            t += t_adjust
                            n_adjusts += 1
                            frame_length = max(1, int(request))
                    if frame_span is not None:
                        tracer.end(frame_span, t=t, n_slots=end_eff + 1)
                    if n_seen >= n:
                        break
                    if not applied_adjust:
                        t += t_query
                        remaining = n if with_replacement else n - n_seen
                        frame_length = max(1, next_frame(remaining))
                    continue

                # --- sequential prefix walk (no per-slot strategy calls) --
                occupancies = counts[: limit + 1].tolist()
                if 1 in occupancies:
                    # Owner lookup only for the prefix's singleton slots; a
                    # full slot->contender dict would cost O(n) per frame.
                    sing_idx = np.flatnonzero(
                        (counts[draws] == 1) & (draws <= limit)
                    )
                    owners = (
                        sing_idx if positions is None else positions[sing_idx]
                    )
                    owner_by_slot = dict(
                        zip(draws[sing_idx].tolist(), owners.tolist())
                    )
                else:
                    owner_by_slot = {}
                for slot, occupancy in enumerate(occupancies):
                    if t >= deadline_t or slot_counter >= max_slots:
                        truncated = True
                        break
                    if occupancy == 0:
                        t += t_empty
                        n_empty += 1
                    elif occupancy == 1:
                        t += t_single
                        n_single += 1
                        if p_loss > 0.0 and loss_rand() < p_loss:
                            n_lost += 1
                        else:
                            p_i = owner_by_slot[slot]
                            if seen[p_i]:
                                n_duplicate += 1
                            else:
                                read = TagRead(
                                    tag_index=ids_list[p_i],
                                    time_s=t,
                                    round_index=round_index,
                                    slot_in_round=slot_counter,
                                )
                                seen[p_i] = True
                                n_seen += 1
                                reads.append(read)
                                if on_read is not None:
                                    on_read(read)
                    else:
                        t += t_collision
                        n_collision += 1
                    slot_counter += 1
                    if slot == cut_idx:
                        exit_cut = True
                        break
                    if n_seen >= n:
                        break

            # ---- shared frame tail --------------------------------------
            if exit_cut:
                if request == -1:
                    # Restart sentinel (ideal DFSA): new frame sized to the
                    # updated remaining-tag count, free of charge — this is
                    # the genie-aided idealisation.
                    remaining = n if with_replacement else n - n_seen
                    frame_length = max(1, next_frame(remaining))
                else:
                    t += t_adjust
                    n_adjusts += 1
                    frame_length = max(1, int(request))
            if frame_span is not None:
                tracer.end(
                    frame_span,
                    t=t,
                    n_slots=slot_counter - n_slots_before,
                )
            if truncated:
                log.truncated = True
                break
            if n_seen >= n:
                break
            if not exit_cut:
                t += t_query
                remaining = n if with_replacement else n - n_seen
                frame_length = max(1, next_frame(remaining))

        log.n_empty = n_empty
        log.n_single = n_single
        log.n_collision = n_collision
        log.n_duplicate = n_duplicate
        log.n_lost = n_lost
        log.n_adjusts = n_adjusts
        return _finish(t)

    # ------------------------------------------------------------------
    def run_for_duration(
        self,
        participant_ids: Sequence[int],
        start_time_s: float,
        duration_s: float,
        on_read: Optional[Callable[[TagRead], None]] = None,
    ) -> InventoryLog:
        """Run back-to-back rounds until ``duration_s`` of simulated time passes.

        Each round reports the whole participant set once (the inventoried
        flags are re-targeted between rounds), which is how a COTS reader in
        continuous-inventory mode behaves.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        total = InventoryLog(start_time_s=start_time_s, end_time_s=start_time_s)
        t = start_time_s
        deadline = start_time_s + duration_s
        while t < deadline:
            round_log = self.run_round(
                participant_ids,
                start_time_s=t,
                max_duration_s=deadline - t,
                on_read=on_read,
            )
            total.merge(round_log)
            if round_log.end_time_s <= t:  # pragma: no cover - safety net
                break
            t = round_log.end_time_s
        return total
