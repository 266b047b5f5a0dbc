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

The per-frame slot draw is vectorised (one ``numpy`` draw per frame).  Two
engines consume it:

- ``engine="calendar"`` (the default) settles whole rounds through the
  compiled event-calendar kernel (:mod:`repro.gen2.calendar`): one C call
  per round replays the PCG64 stream from a pre-fetched buffer, so
  Python-level work is O(rounds) instead of O(slots).  Rounds the kernel
  cannot express — custom strategies, frame-level tracing, non-PCG64
  generators, or a missing C compiler (``REPRO_CALENDAR_CKERNEL=0``) — fall
  back to the sequential slot walk, which then draws from the same buffers
  so that kernel and fallback rounds interleave on one stream.
- ``engine="reference"`` is that sequential slot walk with plain
  ``Generator.integers``/``Generator.random`` draws, kept as the
  differential-testing oracle (see ``tests/gen2/test_calendar_engine.py``).

Both produce bit-identical results for identical seeds.
"""

from __future__ import annotations

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
        #: Mirror of numpy's internal uint32 cache for the raw-word slot-draw
        #: shortcut: ``Generator.integers`` with a bound below 2**32 consumes
        #: 32-bit halves of each 64-bit PCG64 word and buffers an unused high
        #: half across *calls*.  The calendar engine replays draws from
        #: ``random_raw``, so it must carry that spare lane itself to stay
        #: stream-compatible with the reference engine.
        self._spare_lane: Optional[int] = None
        #: Bulk-prefetched 32-bit lanes (loss-free runs only; see
        #: :meth:`_lane_fill`).
        self._lane_arr: Optional[np.ndarray] = None
        self._lane_pos = 0
        self._lane_len = 0
        #: Bulk-prefetched raw 64-bit words (lossy runs only; see
        #: :meth:`_word_fill`).  When link loss is on the slot stream mixes
        #: frame-draw lanes with one whole ``Generator.random()`` word per
        #: singleton, so pre-fetching must happen at word granularity and
        #: every consumer — the calendar kernel and its slot-walk fallback —
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

        One C call per round replays the engine's buffered PCG64 lane
        stream, so reads, counters and timestamps are bit-identical to the
        reference engine.  Rounds the kernel cannot express fall back to
        :meth:`_run_round_reference`, which replays the kernel's buffers for
        the stock strategies (an already-created strategy is passed through,
        preserving the one-factory-call-per-round contract).
        """
        cal = self._cal
        if cal is None:
            from repro.gen2.calendar import CalendarKernel

            cal = self._cal = CalendarKernel()
        tracer = get_tracer()
        traced = tracer.enabled
        bit_generator = self.rng.bit_generator
        replayable = _LITTLE_ENDIAN and isinstance(
            bit_generator, np.random.PCG64
        )
        if (
            cal.fn is None
            or (traced and tracer.frame_detail)
            or not replayable
        ):
            return self._run_round_reference(
                participant_ids,
                start_time_s,
                max_duration_s,
                replay=replayable,
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
        replay: bool = False,
        strategy: Optional[FrameStrategy] = None,
    ) -> InventoryLog:
        """Sequential slot walk: the oracle, and the calendar's fallback.

        As ``engine="reference"`` (``replay=False``) it draws straight from
        the generator.  As the calendar engine's fallback on a little-endian
        PCG64 stream (``replay=True``) it replays stock-strategy draws from
        the kernel's pre-fetched buffers instead (:meth:`_replay_draws`), so
        fallback and kernel rounds interleave on one stream; the two draw
        primitives are fixed here, at round start.
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
        if replay and type(strategy) in (QAdaptive, FixedQ):
            draw_frame, draw_loss = self._replay_draws()
        else:
            rng = self.rng

            def draw_frame(frame_length: int, size: int) -> np.ndarray:
                return rng.integers(0, frame_length, size=size)

            draw_loss = rng.random
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
            draws = draw_frame(frame_length, contenders.size)
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
                        and draw_loss() < self.read_loss_probability
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
    def _replay_draws(self):
        """Frame and loss draws replayed from the calendar kernel's buffers.

        Only for the stock power-of-two strategies on a little-endian PCG64
        stream, where numpy's bounded draw keeps the top ``q`` bits of each
        32-bit lane (``lane >> (32 - q)``) and a frame of length one draws
        nothing.  Loss-free rounds read the pre-split lane buffer; lossy
        rounds read the raw word buffer with the spare-lane carry, one whole
        word per loss draw — the same consumption the kernel replays.
        """
        raw_draw = self.rng.bit_generator.random_raw

        if self.read_loss_probability > 0.0:

            def draw_frame(frame_length: int, size: int) -> np.ndarray:
                if frame_length == 1:
                    return np.zeros(size, dtype=np.int64)
                return self._raw_frame_draw(
                    raw_draw, size, 33 - frame_length.bit_length()
                )

            def draw_loss() -> float:
                return self._loss_draw(raw_draw)

            return draw_frame, draw_loss

        def draw_frame(frame_length: int, size: int) -> np.ndarray:
            if frame_length == 1:
                return np.zeros(size, dtype=np.int64)
            pos = self._lane_pos
            if pos + size > self._lane_len:
                self._lane_fill(raw_draw, size)
                pos = 0
            self._lane_pos = pos + size
            return self._lane_arr[pos : pos + size] >> (
                33 - frame_length.bit_length()
            )

        return draw_frame, None

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
        self._lane_pos = 0
        self._lane_len = int(arr.size)

    def _word_fill(self, raw_draw, min_words: int) -> None:
        """Grow the raw 64-bit word buffer to at least ``min_words`` unconsumed.

        The lossy counterpart of :meth:`_lane_fill`: with link loss on, the
        slot stream interleaves frame-draw lanes with one whole word per
        singleton loss draw, so pre-fetching is only sound at word
        granularity with *every* consumer draining this buffer in order.
        Only the calendar kernel's refill-and-retry loop bulk-fills; the
        slot-walk fallback's helpers below drain leftovers first and then
        draw *exactly* what they need.
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

    def _loss_draw(self, raw_draw) -> float:
        """One uniform double replayed from raw words.

        ``(word >> 11) * 2^-53`` is numpy's exact uint64→double conversion,
        so the value matches ``Generator.random()`` bit for bit while the
        word comes out of the shared buffer.
        """
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
        (:meth:`_word_fill`), which keeps fallback rounds and calendar
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
    def run_for_duration(
        self,
        participant_ids: Sequence[int],
        start_time_s: float,
        duration_s: float,
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
            )
            total.merge(round_log)
            if round_log.end_time_s <= t:  # pragma: no cover - safety net
                break
            t = round_log.end_time_s
        return total
