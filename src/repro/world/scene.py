"""Scene: tags, antennas and ambient movers bound to an RF channel model.

The scene is the single source of physical truth.  The reader asks it two
questions: *which tags can antenna k energise right now?* and *what
observation does tag i produce on antenna k / channel c at time t?*
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gen2.epc import EPC, TagMemory
from repro.gen2.inventory import TagRead
from repro.radio.channel import (
    Reflector,
    backscatter_gain,
    backscatter_gain_from_geometry,
    path_geometry,
)
from repro.radio.constants import ChannelPlan, single_channel
from repro.radio.geometry import (
    as_point,
    distance,
    squared_distance_xyz,
)
from repro.radio.measurement import (
    NoiseModel,
    TagObservation,
    measure_from_bases,
    measurement_bases,
)
from repro.util.circular import TWO_PI
from repro.util.rng import RngStream
from repro.world.motion import Stationary, Trajectory
from repro.world.objects import AmbientObject


@dataclass
class Antenna:
    """A reader antenna: position, usable range and a name."""

    position: np.ndarray
    range_m: float = 8.0
    name: str = ""

    def __post_init__(self) -> None:
        self.position = as_point(self.position)
        if self.range_m <= 0:
            raise ValueError("antenna range must be positive")


@dataclass
class TagInstance:
    """A physical tag: identity, motion, and modulation phase offset.

    ``enter_time``/``exit_time`` bound the interval during which the tag is
    present in the scene at all, and ``blocked_intervals`` lists periods in
    which the tag is shadowed (a pallet in front of it, a hand over it) and
    cannot be energised (Section 4.3, "reading exceptions": tags are allowed
    to come in, go out or be temporarily blocked any time).
    """

    epc: EPC
    trajectory: Trajectory
    phase_offset_rad: float = 0.0
    enter_time: float = float("-inf")
    exit_time: float = float("inf")
    blocked_intervals: Tuple[Tuple[float, float], ...] = ()
    #: Optional full memory map (TID/USER banks); must agree with ``epc``.
    memory: Optional[TagMemory] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.memory is not None and self.memory.epc != self.epc:
            raise ValueError("memory.epc must equal the tag's epc")
        for start, end in self.blocked_intervals:
            if end <= start:
                raise ValueError(
                    f"blocked interval ({start}, {end}) is empty or reversed"
                )

    def matchable(self):
        """What Select commands compare against: memory if set, else EPC."""
        return self.memory if self.memory is not None else self.epc

    def is_blocked(self, t: float) -> bool:
        """Whether the tag is shadowed at time ``t``."""
        return any(
            start <= t < end for start, end in self.blocked_intervals
        )

    def is_present(self, t: float) -> bool:
        """Whether the tag is in the scene and unobstructed at ``t``."""
        return (
            self.enter_time <= t <= self.exit_time
            and not self.is_blocked(t)
        )


class Scene:
    """Physical truth for one deployment."""

    def __init__(
        self,
        antennas: Sequence[Antenna],
        tags: Sequence[TagInstance] = (),
        ambient_objects: Sequence[AmbientObject] = (),
        channel_plan: Optional[ChannelPlan] = None,
        noise: Optional[NoiseModel] = None,
        seed: int = 0,
    ) -> None:
        if not antennas:
            raise ValueError("a scene needs at least one antenna")
        self.antennas: List[Antenna] = list(antennas)
        self.tags: List[TagInstance] = list(tags)
        self.ambient_objects: List[AmbientObject] = list(ambient_objects)
        self.channel_plan = channel_plan or single_channel()
        self.noise = noise or NoiseModel()
        self._streams = RngStream(seed)
        self._measure_rng = self._streams.child("measurement")
        # Per-(antenna, channel) local-oscillator phase offsets: a COTS
        # reader's reported phase has an arbitrary per-channel reference.
        lo_rng = self._streams.child("lo-offsets")
        self._lo_offsets = lo_rng.uniform(
            0.0, TWO_PI, size=(len(self.antennas), len(self.channel_plan))
        )
        # Plain-float mirror for the hot lookup (same values; ``tolist``
        # preserves every bit of the float64 entries).
        self._lo_float = self._lo_offsets.tolist()
        self._epc_to_index: Dict[int, int] = {
            tag.epc.value: i for i, tag in enumerate(self.tags)
        }
        if len(self._epc_to_index) != len(self.tags):
            raise ValueError("duplicate EPCs in scene")
        self._invalidate_caches()

    def _invalidate_caches(self) -> None:
        """Drop derived per-tag state (rebuilt lazily).

        Tags, antennas and ambient objects are fixed after construction,
        so geometry that does not depend on ``t`` — which stationary tags
        each antenna can reach, the round-trip gain of a stationary tag on
        a given (antenna, channel) — is computed once and reused.  Cached
        values are produced by exactly the same code path as the uncached
        ones, so results are bit-identical either way.
        """
        self._tag_static = [
            isinstance(tag.trajectory, Stationary) for tag in self.tags
        ]
        neg_inf, pos_inf = float("-inf"), float("inf")
        self._always_present = [
            tag.enter_time == neg_inf
            and tag.exit_time == pos_inf
            and not tag.blocked_intervals
            for tag in self.tags
        ]
        #: Every tag is always present, so no read needs a presence check.
        self._all_present = all(self._always_present)
        self._static_in_range: Dict[int, frozenset] = {}
        #: antenna -> (fixed members, per-t checks, antenna position as
        #: floats); see ``_range_entries``.
        self._range_entries_cache: Dict[int, Tuple[List[int], list, tuple]] = {}
        #: (antenna, channel) -> {tag: deterministic (phase, RSS) bases};
        #: holds stationary tags in a static environment only.
        self._port_bases: Dict[
            Tuple[int, int], Dict[int, Tuple[float, float]]
        ] = {}
        #: (tag, antenna) -> channel-independent path geometry; shared by all
        #: channels of the plan, so a hop only re-runs the per-frequency part.
        self._geom_cache: Dict[Tuple[int, int], object] = {}
        self._env_static: Optional[bool] = None
        self._static_reflectors: Optional[List[Reflector]] = None
        #: Antenna positions as plain float tuples (``tolist`` is exact), so
        #: per-read geometry for moving tags skips the ndarray unpacking.
        self._antenna_xyz = [
            tuple(antenna.position.tolist()) for antenna in self.antennas
        ]

    def index_of(self, epc: EPC) -> int:
        """Index of the tag carrying ``epc``; raises ``KeyError`` if absent."""
        return self._epc_to_index[epc.value]

    # ------------------------------------------------------------------
    def lo_offset(self, antenna_index: int, channel_index: int) -> float:
        """The reader's LO phase reference for one (antenna, channel)."""
        return self._lo_float[antenna_index % len(self.antennas)][
            channel_index % len(self.channel_plan)
        ]

    def reflectors_at(self, t: float) -> List[Reflector]:
        """Positions of all ambient scatterers at time ``t``."""
        return [
            Reflector(obj.trajectory.position(t), obj.reflection_coefficient)
            for obj in self.ambient_objects
        ]

    def _environment_static(self) -> bool:
        """Whether every ambient scatterer is stationary (cached)."""
        if self._env_static is None:
            self._env_static = all(
                isinstance(obj.trajectory, Stationary)
                for obj in self.ambient_objects
            )
        return self._env_static

    def _reflectors_for(self, t: float) -> List[Reflector]:
        """Reflector list for gain computation; cached when all static."""
        if not self._environment_static():
            return self.reflectors_at(t)
        if self._static_reflectors is None:
            # Stationary positions are t-independent, so one snapshot serves
            # every query time.
            self._static_reflectors = self.reflectors_at(t)
        return self._static_reflectors

    def _static_tags_in_range(self, antenna_index: int) -> frozenset:
        """Stationary tags within one antenna's range (t-independent)."""
        cached = self._static_in_range.get(antenna_index)
        if cached is None:
            antenna = self.antennas[antenna_index]
            cached = frozenset(
                i
                for i, tag in enumerate(self.tags)
                if self._tag_static[i]
                and distance(
                    antenna.position, tag.trajectory.position(0.0)
                )
                <= antenna.range_m
            )
            self._static_in_range[antenna_index] = cached
        return cached

    def _range_entries(self, antenna_index: int) -> Tuple[List[int], list]:
        """Split one antenna's tag list into t-independent and t-dependent
        parts (cached; tags and antennas are fixed after construction).

        Returns ``(fixed, checks, apos_xyz)``: ``fixed`` are indices of
        never-absent tags provably inside the antenna's range at every
        ``t`` — they participate in every round without any per-call work —
        ``checks`` holds ``(index, tag, skip_range)`` for tags whose
        membership depends on ``t``, where ``skip_range`` marks tags that
        only need the presence check (stationary in range, or mobile with a
        whole-trajectory distance bound inside the range), and ``apos_xyz``
        is the antenna position as plain floats for the scalar distance
        check.  Tags provably out of range at every ``t`` are dropped
        entirely.  Mobile-tag classification uses
        :meth:`~repro.world.motion.Trajectory.distance_bounds` with a 1e-9
        relative guard band, so only trajectories whose bound clears the
        range by more than any possible floating-point disagreement with
        the per-``t`` check are folded; everything inside the band keeps
        the exact per-round check.
        """
        cached = self._range_entries_cache.get(antenna_index)
        if cached is None:
            static_reachable = self._static_tags_in_range(antenna_index)
            antenna = self.antennas[antenna_index]
            range_m = antenna.range_m
            guard = 1e-9 * (range_m + 1.0)
            fixed: List[int] = []
            checks: list = []
            for i, tag in enumerate(self.tags):
                if self._tag_static[i]:
                    if i not in static_reachable:
                        continue
                    if self._always_present[i]:
                        fixed.append(i)
                    else:
                        checks.append((i, tag, True))
                    continue
                bounds = tag.trajectory.distance_bounds(antenna.position)
                if bounds is not None:
                    lo, hi = bounds
                    if hi + guard < range_m:
                        if self._always_present[i]:
                            fixed.append(i)
                        else:
                            checks.append((i, tag, True))
                        continue
                    if lo - guard > range_m:
                        continue
                checks.append((i, tag, False))
            apos_xyz = tuple(self.antennas[antenna_index].position.tolist())
            cached = (fixed, checks, apos_xyz)
            self._range_entries_cache[antenna_index] = cached
        return cached

    def tags_in_range(self, antenna_index: int, t: float) -> List[int]:
        """Indices of present tags that antenna ``antenna_index`` can power."""
        fixed, checks, apos_xyz = self._range_entries(antenna_index)
        if not checks:
            return list(fixed)
        ax, ay, az = apos_xyz
        range_m = self.antennas[antenna_index].range_m
        extra: List[int] = []
        for i, tag, skip_range in checks:
            if not tag.is_present(t):
                continue
            if skip_range:
                extra.append(i)
                continue
            # Inlined ``distance``, scalar end to end: the component
            # subtractions are the same IEEE ops numpy would apply
            # elementwise, and ``squared_distance_xyz`` reproduces
            # ``np.dot(d, d)`` bit for bit.
            px, py, pz = tag.trajectory.position_xyz(t)
            d2 = squared_distance_xyz(ax - px, ay - py, az - pz)
            if math.sqrt(d2) <= range_m:
                extra.append(i)
        if not extra:
            return list(fixed)
        if not fixed:
            return extra
        return sorted(fixed + extra)

    def observe(
        self,
        tag_index: int,
        antenna_index: int,
        channel_index: int,
        t: float,
    ) -> TagObservation:
        """The (phase, RSS) report of one read, with noise and quantisation."""
        tag = self.tags[tag_index]
        if not (
            self._always_present[tag_index] or tag.is_present(t)
        ):
            raise ValueError(f"tag {tag_index} is not present at t={t}")
        bases = self._measurement_bases_for(
            tag_index, antenna_index, channel_index, t
        )
        phase, rss = measure_from_bases(
            bases[0], bases[1], self.noise, self._measure_rng
        )
        return TagObservation(
            epc=tag.epc,
            time_s=t,
            phase_rad=phase,
            rss_dbm=rss,
            antenna_index=antenna_index,
            channel_index=channel_index,
        )

    def _measurement_bases_for(
        self,
        tag_index: int,
        antenna_index: int,
        channel_index: int,
        t: float,
    ) -> Tuple[float, float]:
        """Deterministic (phase, RSS) bases of one read; cached when static."""
        cacheable = self._tag_static[tag_index] and self._environment_static()
        if cacheable:
            # Tag and every scatterer are stationary: the round-trip gain on
            # one (tag, antenna, channel) never changes, so the deterministic
            # measurement bases derived from it are reused bit for bit.
            port = self._port_bases.setdefault(
                (antenna_index, channel_index), {}
            )
            bases = port.get(tag_index)
            if bases is not None:
                return bases
        tag = self.tags[tag_index]
        antenna = self.antennas[antenna_index]
        freq = self.channel_plan.frequency(channel_index)
        if cacheable:
            # Distances are t-independent here; reuse them across channels
            # (the per-frequency arithmetic is identical to the direct path,
            # so the resulting gain is bit-identical).
            geom_key = (tag_index, antenna_index)
            geometry = self._geom_cache.get(geom_key)
            if geometry is None:
                geometry = path_geometry(
                    antenna.position,
                    tag.trajectory.position(t),
                    self._reflectors_for(t),
                )
                self._geom_cache[geom_key] = geometry
            gain = backscatter_gain_from_geometry(geometry, freq)
        else:
            reflectors = self._reflectors_for(t)
            if reflectors:
                gain = backscatter_gain(
                    antenna.position, tag.trajectory.position(t), freq,
                    reflectors,
                )
            else:
                # Reflector-free moving tag (the Fig 18 turntables): the
                # geometry is just the direct-path distance, computed
                # scalar end to end (identical arithmetic, see
                # ``tags_in_range``).
                px, py, pz = tag.trajectory.position_xyz(t)
                ax, ay, az = self._antenna_xyz[antenna_index]
                d_direct = math.sqrt(
                    squared_distance_xyz(ax - px, ay - py, az - pz)
                )
                gain = backscatter_gain_from_geometry((d_direct, ()), freq)
        bases = measurement_bases(
            gain,
            tag.phase_offset_rad,
            self.lo_offset(antenna_index, channel_index),
            self.noise,
        )
        if cacheable:
            port[tag_index] = bases
        return bases

    def observe_batch(
        self,
        reads: Sequence[TagRead],
        antenna_index: int,
        channel_index: int,
    ) -> List[TagObservation]:
        """The phase/RSS reports of one round's reads, in read order.

        A read whose tag is absent at its read time (it left the scene or
        was blocked mid-round) gives no report and draws no noise.  The
        round's noise is one ``standard_normal(2k)`` draw: a scalar
        ``normal(0, std)`` is exactly ``std * standard_normal()`` and
        consumes one draw, so the reports and the generator's end position
        match ``k`` :meth:`observe` calls bit for bit.  Quantisation keeps
        the scalar ``round``, which gives +0.0 where ``np.rint`` gives
        -0.0.
        """
        tags = self.tags
        if not self._all_present:
            always = self._always_present
            reads = [
                read
                for read in reads
                if always[read[0]] or tags[read[0]].is_present(read[1])
            ]
        if not reads:
            return []
        z = self._measure_rng.standard_normal(2 * len(reads)).tolist()
        noise = self.noise
        phase_std = noise.phase_noise_std_rad
        rss_std = noise.rss_noise_std_db
        phase_q = noise.phase_quantum_rad
        rss_q = noise.rss_quantum_db
        port = self._port_bases.get((antenna_index, channel_index), {})
        bases_for = self._measurement_bases_for
        fmod = math.fmod
        new = tuple.__new__
        out = []
        append = out.append
        i = 0
        for tag_index, t, _, _ in reads:
            bases = port.get(tag_index)
            if bases is None:
                bases = bases_for(tag_index, antenna_index, channel_index, t)
            phase = bases[0] + phase_std * z[i]
            if phase_q > 0:
                phase = round(phase / phase_q) * phase_q
            # ``fmod`` then one period up for a negative remainder is
            # ``np.mod(phase, 2*pi)`` bit for bit.
            phase = fmod(phase, TWO_PI)
            if phase < 0.0:
                phase += TWO_PI
            rss = bases[1] + rss_std * z[i + 1]
            if rss_q > 0:
                rss = round(rss / rss_q) * rss_q
            # ``tuple.__new__`` skips the NamedTuple's Python-level
            # ``__new__``; the record is an ordinary ``TagObservation``.
            append(
                new(
                    TagObservation,
                    (tags[tag_index].epc, t, phase, rss, antenna_index,
                     channel_index),
                )
            )
            i += 2
        return out

    # ------------------------------------------------------------------

    def epcs(self) -> List[EPC]:
        """All tag identities in scene order."""
        return [tag.epc for tag in self.tags]
