"""Shared scene builders and measurement helpers for the experiments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import Tagwatch, TagwatchConfig
from repro.faults import FaultPlan, FaultyReader
from repro.gen2.epc import EPC, random_epc_population
from repro.radio.constants import ChannelPlan, single_channel
from repro.radio.measurement import TagObservation
from repro.reader import (
    LLRPClient,
    ResilientLLRPClient,
    RetryPolicy,
    SimReader,
)
from repro.util.metrics import MetricsRegistry
from repro.util.rng import RngStream
from repro.world import (
    Antenna,
    Scene,
    Stationary,
    TagInstance,
    TurntablePath,
    office_worker,
)


def corner_antennas(half_span_m: float = 5.0, height_m: float = 1.5) -> List[Antenna]:
    """Four antennas at (+-half_span, +-half_span), the paper's layout."""
    return [
        Antenna((half_span_m, half_span_m, height_m)),
        Antenna((-half_span_m, half_span_m, height_m)),
        Antenna((-half_span_m, -half_span_m, height_m)),
        Antenna((half_span_m, -half_span_m, height_m)),
    ]


def tag_wall_positions(
    n: int, origin: Tuple[float, float, float] = (-1.5, 2.0, 0.8),
    spacing: float = 0.25, columns: int = 10,
) -> List[np.ndarray]:
    """Grid positions for a wall of stationary tags."""
    base = np.asarray(origin, dtype=float)
    return [
        base + np.array([(i % columns) * spacing, (i // columns) * spacing, 0.0])
        for i in range(n)
    ]


@dataclass
class LabSetup:
    """One constructed lab deployment, ready to read."""

    scene: Scene
    reader: SimReader
    epcs: List[EPC]
    mobile_indices: List[int]
    #: Shared metrics registry; populated when the lab was built with a
    #: fault plan (the injector and the resilient client both write here).
    metrics: Optional[MetricsRegistry] = None
    #: Retry policy for the resilient client; None selects the plain client.
    retry_policy: Optional[RetryPolicy] = None
    client_seed: int = 0

    @property
    def mobile_epc_values(self) -> set:
        return {self.epcs[i].value for i in self.mobile_indices}

    def client(self) -> LLRPClient:
        """A connected LLRP client over this deployment's reader.

        Labs built with a fault plan get the resilient client (sharing the
        lab's metrics registry); plain labs keep the seed-exact behaviour.
        """
        if self.retry_policy is not None:
            client: LLRPClient = ResilientLLRPClient(
                self.reader,
                policy=self.retry_policy,
                metrics=self.metrics,
                seed=self.client_seed,
            )
        else:
            client = LLRPClient(self.reader)
        client.connect()
        return client

    def tagwatch(self, config: Optional[TagwatchConfig] = None) -> Tagwatch:
        """A Tagwatch middleware instance bound to this deployment."""
        return Tagwatch(self.client(), config or TagwatchConfig())


def build_lab(
    n_tags: int,
    n_mobile: int,
    seed: int,
    n_antennas: int = 4,
    channel_plan: Optional[ChannelPlan] = None,
    n_people: int = 0,
    people_duration_s: float = 120.0,
    turntable_period_s: float = 4.0,
    turntable_center: Tuple[float, float, float] = (0.0, 0.0, 0.8),
    partition: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> LabSetup:
    """The evaluation testbed: a tag wall plus mobile tags on a turntable.

    Mobile tags are the first ``n_mobile`` indices.

    With a ``fault_plan``, the reader is a fault-injecting
    :class:`~repro.faults.FaultyReader` (injector seed derived from
    ``seed``) and :meth:`LabSetup.client` returns a
    :class:`~repro.reader.ResilientLLRPClient` sharing one metrics
    registry with the injector.  A ``FaultPlan.none()`` lab is
    bit-identical to a plain one.

    With ``partition=True`` the deployment follows the paper's Section 7.2
    layout — "each antenna covers 40 tags": tags are clustered near their
    assigned antenna (round-robin), antenna ranges are trimmed so clusters
    do not overlap, and each mobile tag spins on a turntable inside its own
    cluster.
    """
    if n_mobile < 0:
        raise ValueError(f"n_mobile must be non-negative, got {n_mobile}")
    if n_mobile > n_tags:
        raise ValueError("more mobile tags than tags")
    streams = RngStream(seed)
    epcs = random_epc_population(n_tags, rng=streams.child("epcs"))
    placement = streams.child("placement")
    antennas = corner_antennas()[:n_antennas]
    cluster_centers = []
    cluster_signs = []
    if partition:
        for antenna in antennas:
            antenna.range_m = 4.0
            center = antenna.position * 0.65
            center[2] = 0.8
            cluster_centers.append(center)
            # Outward direction, so grids grow toward the antenna rather
            # than back toward the arena centre (and out of range).
            cluster_signs.append(np.sign(antenna.position[:2]))
    tags: List[TagInstance] = []
    wall = tag_wall_positions(n_tags)
    for i, epc in enumerate(epcs):
        phase_offset = float(placement.uniform(0, 2 * np.pi))
        cluster = i % n_antennas if partition else None
        if i < n_mobile:
            if cluster is not None:
                center = cluster_centers[cluster]
            else:
                center = np.asarray(turntable_center, dtype=float)
            trajectory = TurntablePath(
                center=center,
                radius=0.25,
                period_s=turntable_period_s,
                phase0=float(placement.uniform(0, 2 * np.pi)),
            )
        else:
            if cluster is not None:
                sx, sy = cluster_signs[cluster]
                offset = (wall[i // n_antennas] - wall[0]) * 0.6
                position = cluster_centers[cluster] + np.array(
                    [sx * (0.5 + offset[0]), sy * (0.5 + offset[1]), 0.0]
                )
            else:
                position = wall[i]
            trajectory = Stationary(position)
        tags.append(
            TagInstance(epc=epc, trajectory=trajectory, phase_offset_rad=phase_offset)
        )
    ambient = [
        office_worker(
            (-4.0, -4.0),
            (4.0, 4.0),
            people_duration_s,
            rng=streams.child(f"person-{k}"),
            name=f"person-{k}",
        )
        for k in range(n_people)
    ]
    scene = Scene(
        antennas,
        tags,
        ambient_objects=ambient,
        channel_plan=channel_plan or single_channel(),
        seed=streams.child_seed("scene"),
    )
    if fault_plan is not None:
        metrics: Optional[MetricsRegistry] = MetricsRegistry()
        reader: SimReader = FaultyReader(
            scene,
            plan=fault_plan,
            seed=streams.child_seed("reader"),
            fault_seed=streams.child_seed("faults"),
            metrics=metrics,
        )
        policy = retry_policy or RetryPolicy()
    else:
        metrics = None
        reader = SimReader(scene, seed=streams.child_seed("reader"))
        policy = retry_policy
    return LabSetup(
        scene=scene,
        reader=reader,
        epcs=epcs,
        mobile_indices=list(range(n_mobile)),
        metrics=metrics,
        retry_policy=policy,
        client_seed=streams.child_seed("client") % (2**31),
    )


def irr_by_tag(
    observations: Sequence[TagObservation], t0: float, t1: float
) -> Dict[int, float]:
    """IRR (Hz) per EPC value over [t0, t1) from a raw observation list."""
    if t1 <= t0:
        raise ValueError("window must have positive width")
    counts: Dict[int, int] = {}
    for obs in observations:
        if t0 <= obs.time_s < t1:
            counts[obs.epc.value] = counts.get(obs.epc.value, 0) + 1
    return {epc: n / (t1 - t0) for epc, n in counts.items()}


def read_all_irr(
    setup: LabSetup, duration_s: float
) -> Tuple[Dict[int, float], float]:
    """Baseline: continuous unfiltered inventory; per-tag IRR and end time."""
    t0 = setup.reader.time_s
    observations, _ = setup.reader.run_duration(duration_s)
    t1 = setup.reader.time_s
    irr = irr_by_tag(observations, t0, t1)
    # Tags never read during the interval still have a defined IRR of zero.
    for epc in setup.epcs:
        irr.setdefault(epc.value, 0.0)
    return irr, t1
