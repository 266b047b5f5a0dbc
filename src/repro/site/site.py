"""A site: N SimReaders over one tag field, sharded across the pool.

A site runs one :class:`~repro.reader.SimReader` per
:class:`~repro.site.topology.ReaderPlacement`.  Every reader gets its own
:class:`~repro.world.scene.Scene` view of the *same* tag population (same
EPCs, same positions, same modulation phase offsets — all derived from the
site seed alone), its own antenna, its own rotated channel plan from the
coordinator, and its own independent RNG streams.  Cross-reader coupling —
co-channel and adjacent-channel interference — is folded in as a static
per-reader read-loss penalty computed by the
:class:`~repro.site.channels.ChannelCoordinator` before any reader runs
and handed to each reader as its row of the plan, so each reader's
simulation is a pure function of ``(config, reader_id, plan row)``.

That purity is what makes sharding trivial *and* provable: one reader
task serves both the one-shot :func:`simulate_site` and the
:class:`~repro.site.supervisor.SiteSupervisor`'s epochs.  The caller
computes the site-wide inputs once (channel plan, EPCs, cull arrays),
hands one task per reader to
:func:`repro.experiments.parallel.parallel_map`, and folds every reader's
report rows through the :class:`~repro.site.fusion.FusionLayer` (a
commutative, idempotent fold) in one batch, in reader order, absorbing
worker traces in the same order — so ``workers=N`` is byte-identical to
``workers=1`` for every N.  The differential tests in
``tests/site/test_differential.py`` pin exactly that, over several
topologies and hypothesis-drawn seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.experiments.parallel import parallel_map
from repro.faults.site import SiteFaultPlan
from repro.gen2 import _ckernel
from repro.gen2.epc import EPC, random_epc_population
from repro.gen2.inventory import InventoryLog
from repro.obs.tracer import get_tracer
from repro.reader.reader import SimReader
from repro.site.channels import ChannelCoordinator
from repro.site.fusion import FusionLayer, observation_rows
from repro.site.topology import SiteTopology
from repro.util.rng import RngStream
from repro.world.motion import CircularPath, Stationary, Trajectory
from repro.world.scene import Antenna, Scene, TagInstance

__all__ = [
    "SiteConfig",
    "SiteRun",
    "simulate_site",
    "site_epcs",
    "site_tags",
    "mobile_tag_indices",
    "reachable_tag_indices",
    "build_reader",
    "run_faulted_interval",
    "CULL_MARGIN_REL",
]

#: Relative width of the visibility-culling guard band.  A tag is culled
#: from a reader's shard only when its whole-trajectory distance lower
#: bound exceeds the antenna range by more than ``CULL_MARGIN_REL *
#: (range_m + 1)`` — three orders of magnitude wider than the 1e-9 band
#: :meth:`repro.world.scene.Scene._range_entries` folds with, so the
#: culled shard retains a strict superset of every tag the scene could
#: ever place in range and the simulation output is provably unchanged
#: (the differential tests pin it byte-for-byte).
CULL_MARGIN_REL = 1e-6


@dataclass(frozen=True)
class SiteConfig:
    """Everything a worker needs to rebuild one reader of the site.

    The config is pure data (picklable, ``to_dict``/``from_dict``
    round-trippable), and every random draw any reader performs is keyed on
    ``seed`` plus a stable component name — rule 1 of the deterministic
    fan-out contract in :mod:`repro.experiments.parallel`.
    """

    topology: SiteTopology
    seed: int = 0
    duration_s: float = 1.0
    #: Per-read CRC-loss probability every reader suffers even alone
    #: (cable loss, ambient noise) — the redundancy experiments' miss knob.
    base_read_loss: float = 0.0
    coordinator: ChannelCoordinator = field(default_factory=ChannelCoordinator)
    #: Fleet-scale failure scenario (reader outages, degradations, jams);
    #: the empty plan is a strict no-op — see :mod:`repro.faults.site`.
    faults: SiteFaultPlan = field(default_factory=SiteFaultPlan)
    #: How many tags orbit the field centre instead of sitting on the grid
    #: (evenly sampled from the population; they cross reader zones).
    n_mobile: int = 0
    #: Tangential speed of the mobile tags.
    mobile_speed_mps: float = 0.5

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("site duration must be positive")
        if not 0.0 <= self.base_read_loss < 1.0:
            raise ValueError("base read loss must be a probability")
        if not 0 <= self.n_mobile <= self.topology.n_tags:
            raise ValueError(
                "mobile tag count must lie within the population"
            )
        if self.mobile_speed_mps <= 0:
            raise ValueError("mobile tag speed must be positive")

    def to_dict(self) -> Dict[str, object]:
        """Primitive dict form — what crosses the process boundary.

        The resilience fields (``faults``, ``n_mobile``,
        ``mobile_speed_mps``) are *omitted at their defaults* so the
        serialised form — and every canonical site payload embedding it —
        is byte-identical to the pre-resilience format for fault-free,
        all-stationary configs (the golden files depend on this).
        """
        data: Dict[str, object] = {
            "topology": self.topology.to_dict(),
            "seed": self.seed,
            "duration_s": round(self.duration_s, 9),
            "base_read_loss": round(self.base_read_loss, 9),
            "coordinator": self.coordinator.to_dict(),
        }
        if not self.faults.is_noop:
            data["faults"] = self.faults.to_dict()
        if self.n_mobile:
            data["n_mobile"] = self.n_mobile
            data["mobile_speed_mps"] = round(self.mobile_speed_mps, 9)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SiteConfig":
        faults = data.get("faults")
        return cls(
            topology=SiteTopology.from_dict(data["topology"]),
            seed=int(data["seed"]),
            duration_s=float(data["duration_s"]),
            base_read_loss=float(data["base_read_loss"]),
            coordinator=ChannelCoordinator.from_dict(data["coordinator"]),
            faults=(
                SiteFaultPlan.from_dict(faults)
                if faults
                else SiteFaultPlan.none()
            ),
            n_mobile=int(data.get("n_mobile", 0)),
            mobile_speed_mps=float(data.get("mobile_speed_mps", 0.5)),
        )


# ----------------------------------------------------------------------
# Deterministic construction (shared by every worker)
# ----------------------------------------------------------------------
#: Per-process memo of ``(seed, n_tags) -> EPC population``.  EPCs are
#: frozen, so sharing one population across every reader shard built in
#: the same worker process is safe — and at 10k+ tags the draw loop is
#: the dominant per-shard construction cost without it.
_EPC_MEMO: Dict[Tuple[int, int], List[EPC]] = {}
_EPC_MEMO_LIMIT = 8


def site_epcs(config: SiteConfig) -> List[EPC]:
    """The site's tag identities — a pure function of the site seed."""
    key = (config.seed, config.topology.n_tags)
    epcs = _EPC_MEMO.get(key)
    if epcs is None:
        epcs = random_epc_population(
            config.topology.n_tags,
            rng=RngStream(config.seed).child("site-epcs"),
        )
        if len(_EPC_MEMO) >= _EPC_MEMO_LIMIT:
            _EPC_MEMO.clear()
        _EPC_MEMO[key] = epcs
    return epcs


class _CullInputs(NamedTuple):
    """The per-site arrays every reader's cull reads (never mutated)."""

    grid: np.ndarray  # (n_tags, 3) grid positions
    mobile: np.ndarray  # ascending indices of the orbiting tags
    radii: np.ndarray  # each mobile tag's orbit radius


#: Per-process memo of :class:`_CullInputs`, keyed by the fields that
#: define the grid plus the mobile count.  :func:`simulate_site` fills it
#: before the pool forks, so forked workers inherit it.
_CULL_MEMO: Dict[
    Tuple[int, float, int, Tuple[float, float, float], int], _CullInputs
] = {}
_CULL_MEMO_LIMIT = 8


def _cull_inputs(config: SiteConfig) -> _CullInputs:
    """The site's :class:`_CullInputs`, built once per process."""
    topology = config.topology
    key = (
        topology.n_tags,
        topology.spacing_m,
        topology.columns,
        topology.field_center,
        config.n_mobile,
    )
    inputs = _CULL_MEMO.get(key)
    if inputs is None:
        positions = topology.tag_positions()
        mobile = sorted(mobile_tag_indices(config))
        inputs = _CullInputs(
            grid=np.asarray(positions, dtype=float),
            mobile=np.asarray(mobile, dtype=np.intp),
            radii=np.asarray(
                [_orbit_radius(config, positions[i]) for i in mobile],
                dtype=float,
            ),
        )
        if len(_CULL_MEMO) >= _CULL_MEMO_LIMIT:
            _CULL_MEMO.clear()
        _CULL_MEMO[key] = inputs
    return inputs


def reachable_tag_indices(
    config: SiteConfig, reader_id: int, *, range_scale: float = 1.0
) -> Optional[List[int]]:
    """Indices of every tag reader ``reader_id`` could conceivably power.

    The visibility cull behind the site-scale fast path: a tag is dropped
    from the reader's shard only when the *lower bound* of its distance to
    the antenna — over the tag's whole trajectory — exceeds the effective
    antenna range by more than the conservative :data:`CULL_MARGIN_REL`
    band.  The scene applies the same trajectory bounds with a far tighter
    (1e-9) guard when it folds its per-round range checks, so every tag
    the scene would ever report in range survives the cull; removing the
    rest only renumbers tag indices, which no output surface observes
    (observations carry EPCs, and every RNG stream draws by participant
    count, never by absolute index).

    Stationary tags are bounded by their grid distance; mobile tags by
    :meth:`CircularPath.distance_bounds`, ``hypot(|rho - r|, dz)``,
    evaluated for every orbit at once (all orbits share the field centre,
    so ``rho`` is one scalar per reader).

    Returns ascending indices, or ``None`` when every tag is reachable
    (the caller can then skip subsetting entirely — the ring layouts).
    """
    placement = config.topology.reader(reader_id)
    apos = np.asarray(placement.position, dtype=float)
    range_m = placement.range_m * range_scale
    limit = range_m + CULL_MARGIN_REL * (range_m + 1.0)
    inputs = _cull_inputs(config)
    dist = np.sqrt(((inputs.grid - apos) ** 2).sum(axis=1))
    px, py, pz = placement.position
    cx, cy, _cz = config.topology.field_center
    rho = math.hypot(px - cx, py - cy)
    # An orbit's height is its tag's grid z.
    dist[inputs.mobile] = np.hypot(
        np.abs(rho - inputs.radii), pz - inputs.grid[inputs.mobile, 2]
    )
    keep = dist <= limit
    if bool(keep.all()):
        return None
    return np.flatnonzero(keep).tolist()


def mobile_tag_indices(config: SiteConfig) -> FrozenSet[int]:
    """Which tag indices orbit the field (evenly sampled, no randomness)."""
    if config.n_mobile <= 0:
        return frozenset()
    n = config.topology.n_tags
    return frozenset(
        (i * n) // config.n_mobile for i in range(config.n_mobile)
    )


def _mobile_trajectory(
    config: SiteConfig, position: Tuple[float, float, float]
) -> CircularPath:
    """The orbit a mobile tag follows, derived from its grid slot alone.

    The tag circles the field centre through its own grid position (radius
    clamped up to one grid pitch so centre tags still move), so the orbit
    sweeps across reader zones without ever leaving the site.  Pure
    geometry — no RNG — which keeps the placement stream's draw order
    identical to the all-stationary layout.
    """
    cx, cy, cz = config.topology.field_center
    return CircularPath(
        (cx, cy, cz),
        radius=_orbit_radius(config, position),
        speed=config.mobile_speed_mps,
        phase0=math.atan2(position[1] - cy, position[0] - cx),
        z=position[2],
    )


def _orbit_radius(
    config: SiteConfig, position: Tuple[float, float, float]
) -> float:
    """Orbit radius of the mobile tag at ``position``: its distance from
    the field centre, clamped up to one grid pitch."""
    cx, cy, _cz = config.topology.field_center
    return max(
        math.hypot(position[0] - cx, position[1] - cy),
        config.topology.spacing_m,
    )


def site_tags(
    config: SiteConfig, indices: Optional[Sequence[int]] = None
) -> List[TagInstance]:
    """The shared tag field every reader's scene views.

    EPCs, grid positions and modulation phase offsets depend only on the
    site seed and topology, so all workers rebuild bit-identical tags.
    Mobile tags (``config.n_mobile``) ride deterministic orbits derived
    from their grid slot; the placement RNG draws exactly one phase offset
    per tag either way, so mobility never perturbs the stationary tags.

    ``indices`` restricts the returned instances to a subset of the
    population (ascending tag indices — the visibility cull's output).
    The full population's randomness is always drawn first — one batched
    ``uniform`` call, bit-identical to the historical per-tag scalar
    draws — so the subset's tags are the *same* tags, field for field,
    that the full build would produce at those indices.
    """
    epcs = site_epcs(config)
    placement_rng = RngStream(config.seed).child("site-placement")
    mobile = mobile_tag_indices(config)
    offsets = placement_rng.uniform(
        0.0, 2.0 * np.pi, size=config.topology.n_tags
    )
    chosen = range(len(epcs)) if indices is None else indices
    picked = np.asarray(chosen, dtype=np.intp)
    # Stationary tags hold views of one gathered copy of the memoised
    # grid (fancy indexing copies, so none aliases the shared memo).
    trajectories: List[Trajectory] = Stationary.of_rows(
        _cull_inputs(config).grid[picked]
    )
    if mobile:
        positions = config.topology.tag_positions()
        for j, index in enumerate(chosen):
            if index in mobile:
                trajectories[j] = _mobile_trajectory(config, positions[index])
    # Positional (epc, trajectory, phase offset): a keyword call costs
    # half as much again, once per tag of every shard.
    return [
        TagInstance(epcs[index], trajectory, offset)
        for index, trajectory, offset in zip(
            chosen, trajectories, offsets[picked].tolist()
        )
    ]


def build_reader(
    config: SiteConfig,
    reader_id: int,
    *,
    channel_offset: int,
    interference: float,
    range_scale: float = 1.0,
    seed_salt: str = "",
    cull: bool = True,
) -> SimReader:
    """One reader's fully seeded view of the site.

    Pure against ``(config, reader_id)`` plus the reader's row of a
    channel plan: seeds are derived per reader by name, the channel
    offset and interference penalty come from the caller's plan (one
    :func:`_channel_plan` for a one-shot run, the supervisor's re-plan
    for an epoch), and the shared tag field is rebuilt from the site
    seed.  Two calls — in any two processes — return readers that will
    produce byte-identical observation streams.

    ``range_scale`` stretches the antenna range (the supervisor's
    coverage boost) and ``seed_salt`` salts the per-reader seeds (the
    supervisor's per-epoch randomness); their defaults are the one-shot
    reader.

    ``cull`` (default on) builds the scene from
    :func:`reachable_tag_indices` only — behaviour-neutral by the margin
    argument documented there, but linear in the reader's *zone* rather
    than the whole site.  Culling uses the boosted range, so a supervisor
    coverage boost widens the shard accordingly.  ``cull=False`` keeps
    the full shard; it exists only as the reference the culling tests and
    ``--check-differential`` compare against.
    """
    placement = config.topology.reader(reader_id)
    streams = RngStream(config.seed)
    indices = (
        reachable_tag_indices(config, reader_id, range_scale=range_scale)
        if cull
        else None
    )
    scene = Scene(
        antennas=[
            Antenna(
                np.asarray(placement.position, dtype=float),
                range_m=placement.range_m * range_scale,
                name=f"reader-{reader_id}",
            )
        ],
        tags=site_tags(config, indices),
        channel_plan=config.coordinator.reader_plan(channel_offset),
        seed=streams.child_seed(f"site-scene-{reader_id}{seed_salt}"),
    )
    loss = min(config.base_read_loss + interference, 0.95)
    return SimReader(
        scene,
        seed=streams.child_seed(f"site-reader-{reader_id}{seed_salt}"),
        read_loss_probability=loss,
    )


def _channel_plan(
    config: SiteConfig,
) -> Tuple[Dict[int, int], Dict[int, float]]:
    """The static full-fleet plan: channel offset and interference per id.

    :meth:`ChannelCoordinator.interference_loss` builds the whole R×R
    reader-pair table, so a site computes this once and hands each
    reader its row.
    """
    coordinator = config.coordinator
    return (
        coordinator.assign(config.topology),
        coordinator.interference_loss(config.topology),
    )


# ----------------------------------------------------------------------
# The sharded run
# ----------------------------------------------------------------------
def run_faulted_interval(
    reader: SimReader,
    config: SiteConfig,
    reader_id: int,
    duration_s: float,
    fault_salt: str = "",
) -> Tuple[list, InventoryLog, Optional[Dict[str, object]]]:
    """Run one reader for ``duration_s`` under the site fault plan.

    Splits the interval into the reader's up-segments (outage windows are
    skipped by free-running the clock — the box is simply gone), merges
    the segment logs, then strips jammed/degraded observations (the
    degradation stream is salted with ``fault_salt``).  Returns
    ``(observations, merged_log, fault_stats)``.  A reader the plan never
    touches just runs the interval and gets ``None`` stats.
    """
    faults = config.faults
    t_start = reader.time_s
    t_end = t_start + duration_s
    if faults.reader_noop(reader_id):
        # ``t_end - t_start``, not ``duration_s``: the one segment the
        # walk below would run, which differs in the last bit once
        # ``t_start > 0``.
        observations, log = reader.run_duration(t_end - t_start)
        return observations, log, None
    outages = faults.outages_for(reader_id)
    observations: list = []
    n_truncated = 0
    log: Optional[InventoryLog] = None
    for seg_start, seg_end in faults.up_segments(reader_id, t_start, t_end):
        if reader.time_s < seg_start:
            reader.advance_clock(seg_start - reader.time_s)
        seg_duration = seg_end - reader.time_s
        if seg_duration <= 0:
            continue
        seg_obs, seg_log = reader.run_duration(seg_duration)
        for obs in seg_obs:
            # The engine settles whole rounds, so a round capped at the
            # segment deadline can read marginally past it — but a reader
            # that dies at t cannot have read at t: truncate at the
            # outage instant.
            if any(o.covers(obs.time_s) for o in outages):
                n_truncated += 1
            else:
                observations.append(obs)
        if log is None:
            log = seg_log
        else:
            log.merge(seg_log)
    if log is None:
        log = InventoryLog(start_time_s=t_start, end_time_s=t_start)
    if reader.time_s < t_end:
        reader.advance_clock(t_end - reader.time_s)
    kept, n_jammed, n_degraded = faults.filter_observations(
        observations, reader_id, config.seed, salt=fault_salt
    )
    stats = {
        "down_s": round(faults.down_time_s(reader_id, t_start, t_end), 9),
        "n_outages": sum(
            1 for o in outages if o.at_s < t_end and o.up_at_s > t_start
        ),
        "n_jammed": n_jammed,
        "n_degraded": n_degraded,
        "n_truncated": n_truncated,
    }
    return kept, log, stats


#: One reader's row of a channel plan: ``(channel_offset, interference,
#: range_scale)``.
PlanRow = Tuple[int, float, float]


def _simulate_reader(
    config_dict: Dict[str, object],
    reader_id: int,
    row: PlanRow,
    t0: float,
    duration_s: float,
    seed_salt: str,
    fault_salt: str,
    cull: bool,
) -> dict:
    """Worker task: run one reader from ``t0`` for ``duration_s``.

    Module-level and pure against its (picklable) arguments, per the
    :func:`parallel_map` contract.  Returns primitives only.  The reader's
    plan row, clock start, seed and fault salts and cull decision all
    ride in the task tuple, so every worker — however spawned — shards
    identically without re-planning the whole site.  A one-shot run
    passes its static row, ``t0 = 0`` and the site duration; a
    supervisor epoch passes its re-planned row, the epoch start and
    length, and salts keyed on the epoch index.
    """
    config = SiteConfig.from_dict(config_dict)
    channel_offset, interference, range_scale = row
    reader = build_reader(
        config,
        reader_id,
        channel_offset=channel_offset,
        interference=interference,
        range_scale=range_scale,
        seed_salt=seed_salt,
        cull=cull,
    )
    if t0 > 0:
        reader.advance_clock(t0)
    tracer = get_tracer()
    span = None
    if tracer.enabled:
        span = tracer.begin(
            "site_reader",
            t=reader.time_s,
            category="site",
            reader=reader_id,
            read_loss=round(reader.engine.read_loss_probability, 9),
            n_tags=len(reader.scene.tags),
        )
    observations, log, fault_stats = run_faulted_interval(
        reader, config, reader_id, duration_s, fault_salt
    )
    if span is not None:
        tracer.end(
            span,
            t=reader.time_s,
            n_reports=len(observations),
            n_rounds=log.n_rounds,
        )
    summary = {
        "reader_id": reader_id,
        "reports": observation_rows(observations, reader_id),
        "n_rounds": log.n_rounds,
        "n_slots": log.n_slots,
        "n_lost": log.n_lost,
        "duration_s": round(log.duration_s, 9),
        "read_loss_probability": round(
            reader.engine.read_loss_probability, 9
        ),
    }
    if fault_stats is not None:
        summary["faults"] = fault_stats
    return summary


def _run_readers(
    config: SiteConfig,
    rows: Dict[int, PlanRow],
    fusion: FusionLayer,
    *,
    t0: float,
    duration_s: float,
    seed_salt: str,
    fault_salt: str,
    cull: bool,
    workers: Optional[int],
) -> List[dict]:
    """Run one task per reader of ``rows`` and fold every report into
    ``fusion``; returns the per-reader summaries in ``rows`` order.

    The fan-out and the fold shared by :func:`simulate_site` and the
    supervisor's epochs: one :func:`parallel_map` over the readers, then
    one :meth:`FusionLayer.ingest_rows` over all their rows.
    """
    config_dict = config.to_dict()
    tasks = [
        (config_dict, rid, row, t0, duration_s, seed_salt, fault_salt, cull)
        for rid, row in rows.items()
    ]
    # A pool's workers fork from this process: load and probe the scene's
    # compiled pass here, once, so each worker of every epoch inherits it.
    _ckernel.load_observe_kernel()
    summaries = parallel_map(_simulate_reader, tasks, workers=workers)
    fusion.ingest_rows(
        [report for summary in summaries for report in summary["reports"]]
    )
    return summaries


@dataclass
class SiteRun:
    """One simulated site interval: per-reader summaries plus the fusion."""

    config: SiteConfig
    reader_summaries: List[dict]
    fusion: FusionLayer
    truth_epc_values: List[int]

    # ------------------------------------------------------------------
    @property
    def n_readers(self) -> int:
        return len(self.reader_summaries)

    def missed_epc_values(self) -> List[int]:
        """Tags no reader reported during the interval, ascending."""
        seen = set(self.fusion.epc_values())
        return [value for value in self.truth_epc_values if value not in seen]

    @property
    def missed_rate(self) -> float:
        """Fraction of the true population never reported by any reader."""
        return len(self.missed_epc_values()) / len(self.truth_epc_values)

    @property
    def aggregate_reports(self) -> int:
        """Distinct reads fused across every reader."""
        return self.fusion.n_reports

    def reports_per_reader(self) -> Dict[int, int]:
        """Distinct reads each reader contributed (0 for silent readers)."""
        counts = self.fusion.reports_by_reader()
        return {
            summary["reader_id"]: counts.get(summary["reader_id"], 0)
            for summary in self.reader_summaries
        }

    @property
    def mean_reader_reports(self) -> float:
        """Mean distinct reads per reader — the per-reader throughput."""
        per_reader = self.reports_per_reader()
        return sum(per_reader.values()) / len(per_reader)

    def health_report(self) -> Dict[str, object]:
        """Site-level health verdict for this interval.

        Convenience wrapper around
        :class:`repro.obs.health.SiteHealthMonitor` (imported lazily —
        the health layer sits above the site layer) scoring just this
        run; for rolling multi-interval SLOs hold a monitor yourself and
        feed it every run.
        """
        from repro.obs.health.monitor import SiteHealthMonitor

        monitor = SiteHealthMonitor()
        monitor.observe_run(self)
        return monitor.report(run=self)

    # ------------------------------------------------------------------
    def canonical(self) -> Dict[str, object]:
        """Canonical JSON payload: the byte-equality surface.

        Two runs of the same config — at any worker counts — must
        serialise this identically; the differential tests compare the
        rendered bytes.
        """
        return {
            "config": self.config.to_dict(),
            "readers": self.reader_summaries,
            "fusion": self.fusion.snapshot(),
            "missed": [format(v, "x") for v in self.missed_epc_values()],
        }

    def canonical_bytes(self) -> bytes:
        """:meth:`canonical` rendered to the exact comparison bytes."""
        return (
            json.dumps(self.canonical(), indent=2, sort_keys=True) + "\n"
        ).encode("utf-8")


def simulate_site(
    config: SiteConfig,
    workers: Optional[int] = None,
    *,
    cull: bool = True,
) -> SiteRun:
    """Simulate every reader of the site; fuse reports in reader order.

    ``workers`` has the :func:`parallel_map` semantics (``None``/``0``/``1``
    sequential — the behavioural reference; ``-1`` one per core).  One task
    per reader fans out, which both saturates the pool for big sites and
    keeps each worker's RNG state private to one reader.

    ``cull`` (default on) selects the visibility-culled shards; the
    unculled ``cull=False`` run is the reference they are checked
    against, and produces byte-identical :meth:`SiteRun.canonical_bytes`
    at every worker count.
    """
    # Site-wide inputs are computed here, once: the channel plan rides in
    # the task tuples, and the EPC and cull memos are warm before the pool
    # forks, so forked workers inherit them (a spawned worker recomputes).
    truth_epc_values = sorted(epc.value for epc in site_epcs(config))
    if cull:
        _cull_inputs(config)
    assignment, interference = _channel_plan(config)
    rows = {
        p.reader_id: (assignment[p.reader_id], interference[p.reader_id], 1.0)
        for p in config.topology.readers
    }
    fusion = FusionLayer()
    summaries = _run_readers(
        config,
        rows,
        fusion,
        t0=0.0,
        duration_s=config.duration_s,
        seed_salt="",
        fault_salt="",
        cull=cull,
        workers=workers,
    )
    return SiteRun(
        config=config,
        reader_summaries=summaries,
        fusion=fusion,
        truth_epc_values=truth_epc_values,
    )

