"""Phase II: turning a target set into a concrete reader schedule.

The scheduler owns the indexed bitmask table (rebuilt incrementally as the
population changes), runs the cost-weighted set cover, and lowers the chosen
bitmasks into a ROSpec with **one AISpec per bitmask** — the paper's default
LLRP realisation (Fig 11).  The reader then loops those AISpecs for the
Phase II interval, paying one round start-up per bitmask per sweep, which is
exactly what the set-cover objective priced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.core.bitmask import IndexedBitmaskTable
from repro.core.cost import CostModel
from repro.core.setcover import (
    CoverSelection,
    naive_selection,
    select_bitmasks,
)
from repro.gen2.epc import EPC
from repro.obs.tracer import get_tracer
from repro.reader.llrp import AISpec, AISpecStopTrigger, C1G2Filter, ROSpec
from repro.util.rng import SeedLike, make_rng


@dataclass
class SchedulePlan:
    """Outcome of planning one Phase II schedule."""

    selection: CoverSelection
    rospec: Optional[ROSpec]  # None when there was nothing to schedule
    target_epcs: List[EPC]
    planning_wall_s: float  # wall-clock cost of the search (Fig 17)


class TargetScheduler:
    """Plans selective reading for a target set over a known population."""

    def __init__(
        self,
        cost_model: CostModel,
        max_mask_length: int = 24,
        rng: SeedLike = None,
        method: str = "greedy",
        aispec_mode: str = "per-bitmask",
    ) -> None:
        if method not in ("greedy", "naive"):
            raise ValueError(f"unknown selection method {method!r}")
        if aispec_mode not in ("per-bitmask", "single"):
            raise ValueError(f"unknown AISpec mode {aispec_mode!r}")
        self.cost_model = cost_model
        self.max_mask_length = max_mask_length
        self.rng = make_rng(rng)
        self.method = method
        #: Section 6: "We can set multiple bitmasks by adding multiple
        #: C1G2Filters or multiple AISpecs. We adopt the second method by
        #: default."  "per-bitmask" is the paper's default (one AISpec per
        #: mask, each its own round); "single" packs all masks as filters
        #: of one AISpec, so every sweep is ONE round over the union —
        #: one start-up cost instead of k.
        self.aispec_mode = aispec_mode
        self._table: Optional[IndexedBitmaskTable] = None

    # ------------------------------------------------------------------
    def _ensure_table(self, population: Sequence[EPC]) -> IndexedBitmaskTable:
        if self._table is None:
            self._table = IndexedBitmaskTable(
                population, max_mask_length=self.max_mask_length
            )
        else:
            self._table.update_population(population)
        return self._table

    def plan(
        self,
        population: Sequence[EPC],
        target_epc_values: Set[int],
        antenna_ids: Sequence[int],
        phase2_duration_s: float,
        rospec_id: int = 2,
        antenna_hints: Optional[Dict[int, Set[int]]] = None,
    ) -> SchedulePlan:
        """Select bitmasks for the targets and build the Phase II ROSpec.

        Targets not present in ``population`` (e.g. concerned tags that left
        the scene) are ignored for this cycle.

        ``antenna_hints`` maps EPC values to the antennas that read them in
        Phase I; each bitmask's AISpec then runs only on the antennas where
        its targets actually are, instead of paying a full round start-up on
        every port (a large saving in partitioned deployments).
        """
        start = time.perf_counter()
        target_indices = [
            i for i, epc in enumerate(population) if epc.value in target_epc_values
        ]
        target_epcs = [population[i] for i in target_indices]
        if not target_indices:
            empty = CoverSelection([], [], 0.0, 0, 0, method="greedy")
            return SchedulePlan(
                selection=empty,
                rospec=None,
                target_epcs=[],
                planning_wall_s=time.perf_counter() - start,
            )

        if self.method == "naive":
            selection = naive_selection(target_epcs, self.cost_model)
        else:
            table = self._ensure_table(population)
            candidates = table.candidate_rows(target_indices)
            selection = select_bitmasks(
                candidates,
                target_indices,
                target_epcs,
                len(population),
                self.cost_model,
                self.rng,
            )
        rospec = self.build_rospec(
            selection,
            antenna_ids,
            phase2_duration_s,
            rospec_id,
            target_epcs=target_epcs,
            antenna_hints=antenna_hints,
            aispec_mode=self.aispec_mode,
        )
        tracer = get_tracer()
        if tracer.enabled:
            # Deterministic summary only — the wall-clock cost lives in the
            # enclosing span's wall annotation, never in trace args.
            tracer.event(
                "scheduler.plan",
                category="scheduler",
                method=selection.method,
                n_targets=selection.n_targets,
                n_bitmasks=len(selection.bitmasks),
                n_collateral=selection.n_collateral,
                predicted_sweep_cost_s=selection.total_cost_s,
            )
        return SchedulePlan(
            selection=selection,
            rospec=rospec,
            target_epcs=target_epcs,
            planning_wall_s=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def build_rospec(
        selection: CoverSelection,
        antenna_ids: Sequence[int],
        duration_s: float,
        rospec_id: int,
        target_epcs: Sequence[EPC] = (),
        antenna_hints: Optional[Dict[int, Set[int]]] = None,
        aispec_mode: str = "per-bitmask",
    ) -> Optional[ROSpec]:
        """Lower a selection to a ROSpec, looped for ``duration_s``.

        ``per-bitmask``: one AISpec (round) per mask, as the paper runs.
        ``single``: one AISpec whose filters are all the masks — each
        sweep is one union round paying one start-up cost.
        """
        if not selection.bitmasks:
            return None
        if aispec_mode == "single":
            ports = tuple(antenna_ids)
            if antenna_hints:
                hinted: Set[int] = set()
                for epc in target_epcs:
                    hinted |= antenna_hints.get(epc.value, set())
                if hinted:
                    ports = tuple(sorted(hinted))
            spec = AISpec(
                antenna_ids=ports,
                filters=tuple(
                    C1G2Filter.from_bitmask(b) for b in selection.bitmasks
                ),
                stop=AISpecStopTrigger(n_rounds=1),
            )
            return ROSpec(
                rospec_id=rospec_id,
                ai_specs=(spec,),
                duration_s=duration_s,
            )
        ai_specs = []
        for bitmask in selection.bitmasks:
            ports = tuple(antenna_ids)
            if antenna_hints:
                hinted: Set[int] = set()
                for epc in target_epcs:
                    if bitmask.covers(epc):
                        hinted |= antenna_hints.get(epc.value, set())
                if hinted:
                    ports = tuple(sorted(hinted))
            ai_specs.append(
                AISpec(
                    antenna_ids=ports,
                    filters=(C1G2Filter.from_bitmask(bitmask),),
                    stop=AISpecStopTrigger(n_rounds=1),
                )
            )
        return ROSpec(
            rospec_id=rospec_id,
            ai_specs=tuple(ai_specs),
            duration_s=duration_s,
        )
