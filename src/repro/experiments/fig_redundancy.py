"""Multi-session redundancy: missed-tag rate vs throughput, N readers.

Reproduces the central tradeoff of "Reliable Identification of RFID Tags
Using Multiple Independent Reader Sessions" (PAPERS.md) in the warehouse
setting the ROADMAP targets: overlapping readers run *independent*
sessions over the same population, the fusion layer merges their reports,
and redundancy buys reliability at a throughput price —

- **missed-tag rate strictly falls** as overlapping readers go 1 → 2 → 4:
  a tag is missed only if *every* session misses it, so the site-level
  miss probability is roughly the single-session one raised to the number
  of readers;
- **per-reader throughput falls** at the same time: each extra reader is
  an RF aggressor for its neighbours (co-channel collisions, receiver
  desensitisation — see :mod:`repro.site.channels`), so every session
  completes fewer reads per second than it would alone.

Each site is sharded over the deterministic process pool (one worker per
reader), so ``workers=4`` reproduces ``workers=1`` bit for bit — the
golden test pins the whole result payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.site.channels import ChannelCoordinator
from repro.site.site import SiteConfig, SiteRun, simulate_site
from repro.site.topology import ring_site
from repro.util.tables import format_table


@dataclass
class RedundancyPoint:
    """Site-level outcome of one overlap level (one ring of readers)."""

    n_readers: int
    n_tags: int
    missed_count: int
    missed_rate: float
    #: Distinct reads per second fused across the whole site.
    aggregate_irr_hz: float
    #: Mean distinct reads per second contributed by one reader.
    per_reader_irr_hz: float
    #: The interference penalty each reader suffered (uniform on a ring).
    extra_read_loss: float

    def to_dict(self) -> Dict[str, object]:
        """Golden-file row for this overlap level."""
        return {
            "n_readers": self.n_readers,
            "n_tags": self.n_tags,
            "missed_count": self.missed_count,
            "missed_rate": round(self.missed_rate, 9),
            "aggregate_irr_hz": round(self.aggregate_irr_hz, 9),
            "per_reader_irr_hz": round(self.per_reader_irr_hz, 9),
            "extra_read_loss": round(self.extra_read_loss, 9),
        }


@dataclass
class RedundancyResult:
    points: List[RedundancyPoint]
    n_tags: int
    duration_s: float
    seed: int
    base_read_loss: float

    def point(self, n_readers: int) -> RedundancyPoint:
        """The sweep point for one overlap level; raises if absent."""
        for point in self.points:
            if point.n_readers == n_readers:
                return point
        raise KeyError(f"no {n_readers}-reader point in this result")

    @property
    def monotone_reliability(self) -> bool:
        """Missed-tag count strictly falls with every added overlap level."""
        missed = [p.missed_count for p in self.points]
        return all(b < a for a, b in zip(missed, missed[1:]))

    @property
    def monotone_throughput_cost(self) -> bool:
        """Per-reader throughput strictly falls with every overlap level."""
        rates = [p.per_reader_irr_hz for p in self.points]
        return all(b < a for a, b in zip(rates, rates[1:]))

    def to_dict(self) -> Dict[str, object]:
        """Canonical payload the golden regression test pins."""
        return {
            "n_tags": self.n_tags,
            "duration_s": round(self.duration_s, 9),
            "seed": self.seed,
            "base_read_loss": round(self.base_read_loss, 9),
            "monotone_reliability": self.monotone_reliability,
            "monotone_throughput_cost": self.monotone_throughput_cost,
            "points": [p.to_dict() for p in self.points],
        }


def _point_from_run(run: SiteRun) -> RedundancyPoint:
    duration = run.config.duration_s
    losses = [
        s["read_loss_probability"] for s in run.reader_summaries
    ]
    return RedundancyPoint(
        n_readers=run.n_readers,
        n_tags=run.config.topology.n_tags,
        missed_count=len(run.missed_epc_values()),
        missed_rate=run.missed_rate,
        aggregate_irr_hz=run.aggregate_reports / duration,
        per_reader_irr_hz=run.mean_reader_reports / duration,
        extra_read_loss=max(losses) - run.config.base_read_loss,
    )


def run(
    overlaps: Sequence[int] = (1, 2, 4),
    n_tags: int = 120,
    duration_s: float = 0.25,
    seed: int = 7,
    base_read_loss: float = 0.3,
    n_channels: int = 2,
    radius_m: float = 3.0,
    range_m: float = 12.0,
    workers: Optional[int] = None,
) -> RedundancyResult:
    """Sweep overlap levels; one sharded site run per level.

    The defaults put every site in the truncation regime (the duration is
    shorter than one full inventory round of the population), so a tag is
    read only if some session reaches it before the cutoff — which is what
    makes single-session misses common enough for redundancy to matter,
    exactly as in the multi-session paper's short read-window experiments.
    ``n_channels=2`` squeezes the site into a two-channel plan so the
    4-reader ring exercises genuine co-channel interference.
    """
    points = []
    for n_readers in overlaps:
        config = SiteConfig(
            topology=ring_site(
                n_readers, n_tags, radius_m=radius_m, range_m=range_m
            ),
            seed=seed,
            duration_s=duration_s,
            base_read_loss=base_read_loss,
            coordinator=ChannelCoordinator(
                n_channels=n_channels,
                co_channel_loss=0.12,
                adjacent_loss=0.06,
            ),
        )
        points.append(_point_from_run(simulate_site(config, workers=workers)))
    return RedundancyResult(
        points=points,
        n_tags=n_tags,
        duration_s=duration_s,
        seed=seed,
        base_read_loss=base_read_loss,
    )


def format_report(result: RedundancyResult) -> str:
    """Render the paper-style tradeoff table."""
    headers = [
        "readers",
        "missed",
        "missed %",
        "site reads/s",
        "reads/s per reader",
        "interference loss",
    ]
    rows = []
    for p in result.points:
        rows.append(
            [
                p.n_readers,
                p.missed_count,
                p.missed_rate * 100.0,
                p.aggregate_irr_hz,
                p.per_reader_irr_hz,
                p.extra_read_loss,
            ]
        )
    title = (
        f"Redundancy vs throughput — {result.n_tags} tags, "
        f"{result.duration_s * 1e3:.0f} ms window, "
        f"per-read loss {result.base_read_loss:.0%}; "
        f"reliability monotone: {result.monotone_reliability}, "
        f"throughput cost monotone: {result.monotone_throughput_cost}"
    )
    return format_table(headers, rows, precision=2, title=title)
