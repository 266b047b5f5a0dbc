"""Tagwatch configuration, including the user's "concerned tags" file.

Section 5 allows operators to pin tags that must always be scheduled
("targets regardless of whether they are in motion") through a configuration
file; :func:`load_concerned_epcs` reads the simple one-EPC-per-line format.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import FrozenSet, Iterable, Union

from repro.core.bitmask import MAX_WINDOW_BITS
from repro.core.cost import CostModel, PAPER_R420
from repro.core.gmm import GmmParams
from repro.gen2.epc import EPC


@dataclass(frozen=True)
class TagwatchConfig:
    """All Tagwatch knobs, with the paper's Section 6 defaults."""

    #: Fixed length of Phase II (the paper fixes 5 s; upper applications may
    #: shorten it for lower state-transition latency).
    phase2_duration_s: float = 5.0
    #: Immobility-model hyper-parameters (alpha, K, xi, ...).
    gmm: GmmParams = field(default_factory=GmmParams.for_phase)
    #: Inventory-cost constants used to price candidate bitmasks.
    cost_model: CostModel = PAPER_R420
    #: Above this fraction of moving tags, fall back to reading everything
    #: (Section 3, "Scope": adaptivity stops paying beyond ~20%).
    fallback_fraction: float = 0.2
    #: Longest enumerated mask (see repro.core.bitmask for the rationale).
    max_mask_length: int = 24
    #: EPC values the operator always wants scheduled.
    concerned_epc_values: FrozenSet[int] = frozenset()
    #: Aggregation of per-reading motion flags into a per-tag verdict.
    vote_rule: str = "any"
    #: Forget immobility models for tags unseen this long (Section 4.3).
    expire_after_s: float = 60.0
    #: Shard immobility models per channel (needed under frequency hopping).
    key_by_channel: bool = True
    #: Bitmask selection algorithm: "greedy" (the paper's set cover, with
    #: its fall-back to naive) or "naive" (one full-EPC mask per target —
    #: the comparison baseline of Fig 15/16/18).
    selection_method: str = "greedy"
    #: Phase II LLRP realisation: "per-bitmask" (the paper's default — one
    #: AISpec/round per mask) or "single" (all masks as C1G2Filters of one
    #: AISpec: each sweep is one union round with one start-up cost).
    aispec_mode: str = "per-bitmask"
    #: Graceful degradation: when Phase I returns fewer than this fraction
    #: of the previously known population (lossy reports, reader stall),
    #: the cycle is treated as low-confidence and Phase II falls back to
    #: read-everything instead of trusting a partial assessment.
    #: 0.0 disables the check (the seed behaviour).
    min_phase1_fraction: float = 0.0
    #: Partial-report tolerance: tags missing from Phase I stay in the
    #: known population for this many cycles before being dropped, so a
    #: single lossy inventory does not evict still-present tags from the
    #: scheduler's coverage table.  0 keeps the strict seed behaviour.
    population_grace_cycles: int = 0

    def __post_init__(self) -> None:
        if self.phase2_duration_s <= 0:
            raise ValueError("Phase II duration must be positive")
        if not 0.0 < self.fallback_fraction <= 1.0:
            raise ValueError("fallback fraction must be in (0, 1]")
        if not 1 <= self.max_mask_length <= MAX_WINDOW_BITS:
            raise ValueError(
                f"max_mask_length must be in [1, {MAX_WINDOW_BITS}], "
                f"got {self.max_mask_length}"
            )
        if self.vote_rule not in ("any", "majority"):
            raise ValueError(f"unknown vote rule {self.vote_rule!r}")
        if self.selection_method not in ("greedy", "naive"):
            raise ValueError(
                f"unknown selection method {self.selection_method!r}"
            )
        if self.aispec_mode not in ("per-bitmask", "single"):
            raise ValueError(f"unknown AISpec mode {self.aispec_mode!r}")
        if not 0.0 <= self.min_phase1_fraction <= 1.0:
            raise ValueError("min_phase1_fraction must be in [0, 1]")
        if self.population_grace_cycles < 0:
            raise ValueError("population_grace_cycles must be non-negative")

    def with_concerned(
        self, epcs: Iterable[Union[EPC, int]]
    ) -> "TagwatchConfig":
        """A copy of this config with extra operator-pinned tags."""
        values = set(self.concerned_epc_values)
        for item in epcs:
            values.add(item.value if isinstance(item, EPC) else int(item))
        return replace(self, concerned_epc_values=frozenset(values))


def load_concerned_epcs(path: Union[str, Path]) -> FrozenSet[int]:
    """Read the concerned-tags configuration file.

    Format: one EPC per line, hex (optionally ``0x``-prefixed) or binary
    with a ``0b`` prefix; blank lines and ``#`` comments are ignored.
    """
    values = set()
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("0b"):
                epc = EPC.from_bits(line[2:])
            else:
                epc = EPC.from_hex(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad EPC {line!r}") from exc
        values.add(epc.value)
    return frozenset(values)


def save_concerned_epcs(
    path: Union[str, Path], epcs: Iterable[EPC]
) -> None:
    """Write a concerned-tags file (inverse of :func:`load_concerned_epcs`)."""
    lines = [epc.to_hex() for epc in epcs]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
