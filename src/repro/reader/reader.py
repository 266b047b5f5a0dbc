"""SimReader: a simulated ImpinJ Speedway R420.

Binds the slot-accurate :class:`~repro.gen2.inventory.InventoryEngine` to a
physical :class:`~repro.world.scene.Scene`: every successful slot becomes a
:class:`~repro.radio.measurement.TagObservation` carrying the phase/RSS the
channel model produces at the exact simulated read time, on the channel the
hopper currently occupies, for the antenna running the round.  The reader
hands the round's reads to :meth:`~repro.world.scene.Scene.observe_batch`
as the engine settled them; the scene drops reads of tags that left
mid-round and turns the rest into observations in one pass.

The reader owns the simulated clock.  Rounds advance it; frequency hops
happen at round boundaries once the regulatory dwell has elapsed (COTS
readers do not retune mid-round).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.gen2.aloha import QAdaptive
from repro.gen2.commands import Select
from repro.gen2.inventory import InventoryEngine, InventoryLog
from repro.gen2.select import apply_selects
from repro.gen2.timing import R420_PROFILE, LinkTiming
from repro.obs.tracer import get_tracer
from repro.radio.measurement import TagObservation
from repro.reader.llrp import AISpec, ROSpec
from repro.util.rng import RngStream
from repro.world.scene import Scene

@dataclass
class RoundResult:
    """Observations plus the link-layer log of one inventory round."""

    observations: List[TagObservation]
    log: InventoryLog
    antenna_index: int
    channel_index: int


class SimReader:
    """A four-port COTS reader bound to a scene.

    Parameters
    ----------
    scene:
        Physical truth (tags, antennas, channel plan, noise).
    timing:
        Gen2 link timing profile.
    strategy_factory:
        Anti-collision controller per round; defaults to Q-adaptive with the
        spec-recommended initial Q of 4.
    seed:
        Seed for slot draws (independent of the scene's measurement noise).
    with_replacement:
        Session model handed to the inventory engine (see its docstring).
    engine:
        Inventory engine: ``"calendar"`` (default) or ``"reference"``.
    """

    def __init__(
        self,
        scene: Scene,
        timing: LinkTiming = R420_PROFILE,
        strategy_factory: Optional[Callable[[], object]] = None,
        seed: int = 0,
        with_replacement: bool = True,
        read_loss_probability: float = 0.0,
        engine: str = "calendar",
    ) -> None:
        self.scene = scene
        self.timing = timing
        factory = strategy_factory or (lambda: QAdaptive(initial_q=4))
        self._streams = RngStream(seed)
        self.engine = InventoryEngine(
            timing,
            factory,
            rng=self._streams.child("slots"),
            with_replacement=with_replacement,
            read_loss_probability=read_loss_probability,
            engine=engine,
        )
        self.time_s = 0.0
        self._channel_index = 0
        self._last_hop_s = 0.0
        # Select tuple -> {tag index: SL flag}.  A tag's flag is a pure
        # function of the Select sequence and its static memory contents,
        # and the scene's tag list is fixed, so it is computed once per
        # (selects, tag) instead of once per round.
        self._select_flags: dict = {}

    # ------------------------------------------------------------------
    # Clock and channel management
    # ------------------------------------------------------------------
    @property
    def channel_index(self) -> int:
        return self._channel_index

    def _maybe_hop(self) -> None:
        plan = self.scene.channel_plan
        if len(plan) < 2:
            return
        if self.time_s - self._last_hop_s >= plan.hop_dwell_s:
            self._channel_index = (self._channel_index + 1) % len(plan)
            self._last_hop_s = self.time_s

    def advance_clock(self, seconds: float) -> None:
        """Let simulated time pass without reading (reader idle)."""
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self.time_s += seconds

    # ------------------------------------------------------------------
    # Inventory
    # ------------------------------------------------------------------
    def participants(
        self, antenna_index: int, selects: Sequence[Select]
    ) -> List[int]:
        """Tag indices that will contend: in range, present, SL-selected."""
        scene = self.scene
        in_range = scene.tags_in_range(antenna_index, self.time_s)
        if not selects:
            # No Select => every in-range tag participates (SL unfiltered);
            # skip materialising the memory-bank views entirely.
            # ``tags_in_range`` returns a fresh list, so no copy is needed.
            return in_range
        key = tuple(selects)
        flags = self._select_flags.get(key)
        if flags is None:
            flags = self._select_flags[key] = {}
        out: List[int] = []
        select_list = None
        tags = scene.tags
        for idx in in_range:
            flag = flags.get(idx)
            if flag is None:
                if select_list is None:
                    select_list = list(selects)
                flag = flags[idx] = apply_selects(
                    select_list, (tags[idx].matchable(),)
                )[0]
            if flag:
                out.append(idx)
        return out

    def inventory_round(
        self,
        antenna_index: int,
        selects: Sequence[Select] = (),
        max_duration_s: Optional[float] = None,
    ) -> RoundResult:
        """Run one inventory round on one antenna.

        The round's start-up cost already includes one Select; additional
        Select commands (multi-filter union) are charged explicitly.
        """
        if not 0 <= antenna_index < len(self.scene.antennas):
            raise ValueError(
                f"antenna {antenna_index} does not exist on this reader "
                f"({len(self.scene.antennas)} port(s))"
            )
        self._maybe_hop()
        channel = self._channel_index
        tracer = get_tracer()
        round_span = None
        if tracer.enabled:
            round_span = tracer.begin(
                "inventory_round",
                t=self.time_s,
                category="reader",
                antenna=antenna_index,
                channel=channel,
                n_selects=len(selects),
            )
            if selects:
                # Every round's start-up already covers one Select; extras
                # are the per-mask overhead the set cover priced.
                tracer.event(
                    "select",
                    t=self.time_s,
                    category="gen2",
                    antenna=antenna_index,
                    n_filters=len(selects),
                    extra_cost_s=(
                        max(0, len(selects) - 1) * self.timing.select_duration
                    ),
                )
        extra_selects = max(0, len(selects) - 1)
        self.time_s += extra_selects * self.timing.select_duration

        participants = self.participants(antenna_index, selects)
        log = self.engine.run_round(
            participants,
            start_time_s=self.time_s,
            max_duration_s=max_duration_s,
        )
        # A tag may leave the scene mid-round (participants are fixed when
        # the round starts); it simply stops responding, so the scene turns
        # its pending read into no report.
        observations = self.scene.observe_batch(
            log.reads, antenna_index, channel
        )
        self.time_s = log.end_time_s
        if round_span is not None:
            tracer.end(
                round_span,
                t=self.time_s,
                n_observations=len(observations),
                n_participants=len(participants),
            )
        return RoundResult(observations, log, antenna_index, channel)

    def run_duration(
        self,
        duration_s: float,
        antenna_indices: Optional[Sequence[int]] = None,
        selects: Sequence[Select] = (),
    ) -> Tuple[List[TagObservation], InventoryLog]:
        """Continuous inventory for ``duration_s``, cycling antennas per round."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        antennas = list(
            antenna_indices
            if antenna_indices is not None
            else range(len(self.scene.antennas))
        )
        deadline = self.time_s + duration_s
        all_obs: List[TagObservation] = []
        total = InventoryLog(start_time_s=self.time_s, end_time_s=self.time_s)
        cursor = 0
        while self.time_s < deadline:
            result = self.inventory_round(
                antennas[cursor % len(antennas)],
                selects,
                max_duration_s=deadline - self.time_s,
            )
            all_obs.extend(result.observations)
            total.merge(result.log)
            cursor += 1
        return all_obs, total

    # ------------------------------------------------------------------
    # ROSpec execution (LLRP entry point)
    # ------------------------------------------------------------------
    def execute_rospec(self, rospec: ROSpec) -> Tuple[List[TagObservation], InventoryLog]:
        """Execute a ROSpec: AISpecs run sequentially, looping until the
        ROSpec duration elapses (or once through when no duration is set)."""
        all_obs: List[TagObservation] = []
        total = InventoryLog(start_time_s=self.time_s, end_time_s=self.time_s)
        deadline = (
            self.time_s + rospec.duration_s
            if rospec.duration_s is not None
            else None
        )
        while True:
            for ai_spec in rospec.ai_specs:
                remaining = None if deadline is None else deadline - self.time_s
                if remaining is not None and remaining <= 0:
                    return all_obs, total
                obs, log = self._execute_aispec(ai_spec, remaining)
                all_obs.extend(obs)
                total.merge(log)
            if deadline is None:
                return all_obs, total

    def _execute_aispec(
        self, ai_spec: AISpec, remaining_s: Optional[float]
    ) -> Tuple[List[TagObservation], InventoryLog]:
        selects = ai_spec.selects()
        all_obs: List[TagObservation] = []
        total = InventoryLog(start_time_s=self.time_s, end_time_s=self.time_s)
        for _ in range(ai_spec.stop.n_rounds):
            for antenna in ai_spec.antenna_ids:
                budget = (
                    None if remaining_s is None else remaining_s - total.duration_s
                )
                if budget is not None and budget <= 0:
                    return all_obs, total
                result = self.inventory_round(antenna, selects, budget)
                all_obs.extend(result.observations)
                total.merge(result.log)
        return all_obs, total
