"""Scene: tags, antennas and ambient movers bound to an RF channel model.

The scene is the single source of physical truth.  The reader asks it two
questions: *which tags can antenna k energise right now?* and *what
observation does tag i produce on antenna k / channel c at time t?*  The
second is asked once per round: :meth:`Scene.observe_batch` settles the
round's reads in one compiled pass and answers with an
:class:`ObservationBatch` of report columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.gen2 import _ckernel
from repro.gen2.epc import EPC, TagMemory
from repro.gen2.inventory import ReadColumns, TagRead
from repro.radio.channel import (
    Reflector,
    backscatter_gain,
    backscatter_gain_from_geometry,
    path_geometry,
)
from repro.radio.constants import ChannelPlan, single_channel, wavelength
from repro.radio.geometry import as_point, squared_distance_xyz
from repro.radio.measurement import (
    NoiseModel,
    ObservationBatch,
    TagObservation,
    measure_from_bases,
    measurement_bases,
    settle_report,
)
from repro.util.circular import TWO_PI
from repro.util.rng import RngStream
from repro.world.motion import (
    CircularPath,
    Stationary,
    Trajectory,
    TurntablePath,
)
from repro.world.objects import AmbientObject


#: The compiled pass's kind of each trajectory class it computes bases
#: for; exact classes only, since a subclass may move differently.
_KINDS = {
    Stationary: _ckernel.KIND_STATIONARY,
    CircularPath: _ckernel.KIND_CIRCULAR,
    TurntablePath: _ckernel.KIND_CIRCULAR,
}


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
        self._epcs = [tag.epc for tag in self.tags]
        #: The compiled observation pass (created by the first
        #: ``observe_batch`` when the kernel is available).
        self._scratch: Optional[_ckernel.ObserveScratch] = None
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
        self._all_static = all(self._tag_static)
        neg_inf, pos_inf = float("-inf"), float("inf")
        self._always_present = [
            tag.enter_time == neg_inf
            and tag.exit_time == pos_inf
            and not tag.blocked_intervals
            for tag in self.tags
        ]
        #: Every tag is always present, so no read needs a presence check.
        self._all_present = all(self._always_present)
        self._always_present_np = np.array(self._always_present, dtype=bool)
        self._static_in_range: Dict[int, frozenset] = {}
        self._static_xyz: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: antenna -> (fixed members, per-t checks, antenna position as
        #: floats); see ``_range_entries``.
        self._range_entries_cache: Dict[int, Tuple[List[int], list, tuple]] = {}
        #: (antenna, channel) -> (table, its address, port row, its
        #: address): table row i holds the deterministic (phase, RSS)
        #: bases of tag i, NaN until cached (stationary tags in a static
        #: environment only); the port row is what the compiled pass
        #: needs of the port, ``[ax, ay, az, wavelength, lo_offset]``.
        self._port_tables: Dict[
            Tuple[int, int], Tuple[np.ndarray, int, np.ndarray, int]
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
        """Stationary tags within one antenna's range (t-independent).

        A tag is in range when ``distance(antenna, position) <= range_m``.
        One vectorised distance per tag classifies every tag outside the
        1e-9 guard band that :meth:`_range_entries` also folds with (a
        plain sum of squares and the FMA dot ``distance`` uses differ by
        ulps, far inside the band); tags inside the band are rechecked
        with ``distance``'s own arithmetic, ``squared_distance_xyz``.
        """
        cached = self._static_in_range.get(antenna_index)
        if cached is None:
            antenna = self.antennas[antenna_index]
            range_m = antenna.range_m
            guard = 1e-9 * (range_m + 1.0)
            indices, points = self._static_points()
            delta = antenna.position - points
            dist = np.sqrt((delta * delta).sum(axis=1))
            sure_in = dist <= range_m - guard
            inside = indices[sure_in].tolist()
            # Written so that a NaN distance or bound lands in the band.
            border = np.flatnonzero(~(sure_in | (dist > range_m + guard)))
            for i, (dx, dy, dz) in zip(
                indices[border].tolist(), delta[border].tolist()
            ):
                if math.sqrt(squared_distance_xyz(dx, dy, dz)) <= range_m:
                    inside.append(i)
            cached = frozenset(inside)
            self._static_in_range[antenna_index] = cached
        return cached

    def _static_points(self) -> Tuple[np.ndarray, np.ndarray]:
        """Indices of the stationary tags and their ``(m, 3)`` positions
        (built once; tags are fixed after construction)."""
        if self._static_xyz is None:
            indices = [i for i, fixed in enumerate(self._tag_static) if fixed]
            points = np.empty((len(indices), 3))
            if indices:
                trajectories = [self.tags[i].trajectory for i in indices]
                points[:] = np.concatenate(
                    [
                        t.point if type(t) is Stationary else t.position(0.0)
                        for t in trajectories
                    ]
                ).reshape(-1, 3)
            self._static_xyz = (np.asarray(indices, dtype=np.intp), points)
        return self._static_xyz

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
            table = self._port_table(antenna_index, channel_index)[0]
            phase_base = table[tag_index, 0]
            if not math.isnan(phase_base):
                return float(phase_base), float(table[tag_index, 1])
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
            table[tag_index] = bases
        return bases

    def _port_table(
        self, antenna_index: int, channel_index: int
    ) -> Tuple[np.ndarray, int, np.ndarray, int]:
        """One (antenna, channel)'s bases table and port row, each with
        its address."""
        key = (antenna_index, channel_index)
        entry = self._port_tables.get(key)
        if entry is None:
            table = np.full((len(self.tags), 2), np.nan)
            port = np.array(
                [
                    *self._antenna_xyz[antenna_index],
                    wavelength(self.channel_plan.frequency(channel_index)),
                    self.lo_offset(antenna_index, channel_index),
                ]
            )
            entry = self._port_tables[key] = (
                table, table.ctypes.data, port, port.ctypes.data
            )
        return entry

    def _tag_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """Each tag's kind and row for the compiled pass (see
        :mod:`repro.gen2._ckernel`): a stationary tag carries its
        position, a circular one (``CircularPath``, ``TurntablePath``)
        its centre, radius, speed, ``phase0`` and ``start_time``, every
        tag its phase offset.  Tags on any other trajectory, and every
        tag of a scene with ambient scatterers, are ``KIND_PYTHON``: their
        bases come from :meth:`_measurement_bases_for`."""
        tags = self.tags
        n = len(tags)
        rows = np.zeros((n, _ckernel.TAG_ROW))
        if self.ambient_objects:
            return np.zeros(n, dtype=np.int8), rows
        trajectories = [tag.trajectory for tag in tags]
        kinds = np.array(
            [_KINDS.get(type(t), _ckernel.KIND_PYTHON) for t in trajectories],
            dtype=np.int8,
        )
        rows[:, 0] = [tag.phase_offset_rad for tag in tags]
        indices, points = self._static_points()
        exact = kinds[indices] == _ckernel.KIND_STATIONARY
        rows[indices[exact], 1:4] = points[exact]
        for i in np.flatnonzero(kinds == _ckernel.KIND_CIRCULAR).tolist():
            t = trajectories[i]
            rows[i, 1:] = (
                *t.center.tolist(), t.radius, t.speed, t.phase0, t.start_time
            )
        return kinds, rows

    def observe_batch(
        self,
        reads: Union[ReadColumns, Sequence[TagRead]],
        antenna_index: int,
        channel_index: int,
    ) -> Sequence[TagObservation]:
        """The phase/RSS reports of one round's reads, in read order.

        ``reads`` is the round's :class:`~repro.gen2.inventory.ReadColumns`
        (what the engine hands the reader) or its ``TagRead`` records.  A
        read whose tag is absent at its read time (it left the scene or
        was blocked mid-round) gives no report and draws no noise.  The
        round's noise is one ``standard_normal(2k)`` draw: a scalar
        ``normal(0, std)`` is exactly ``std * standard_normal()`` and
        consumes one draw, so the reports and the generator's end position
        match ``k`` :meth:`observe` calls bit for bit.

        With the kernel loaded every round settles in one call to the
        compiled ``repro_observe``: it gathers cached bases, computes the
        bases of stationary and circular tags not cached yet (stationary
        ones go into the port's table), adds the noise, quantises and
        wraps.  Reads whose bases it leaves to Python (other trajectories,
        scenes with ambient scatterers) get them from
        :meth:`_measurement_bases_for` and a second call.  The result is an
        :class:`ObservationBatch`, whose tuples are built on first access.
        Without the kernel the round settles read by read with
        :func:`~repro.radio.measurement.settle_report`, which the kernel is
        probed against at load, into a list of ``TagObservation``s.
        """
        if type(reads) is not ReadColumns:
            reads = ReadColumns.from_reads(reads)
        if not self._all_present and len(reads):
            reads = self._present(reads)
        if not len(reads):
            return []
        scratch = self._scratch
        if scratch is None:
            fn = _ckernel.load_observe_kernel()
            if fn is None:
                return self._settle_loop(reads, antenna_index, channel_index)
            scratch = self._scratch = _ckernel.ObserveScratch(
                fn, *self._tag_columns()
            )
        table, table_ptr, _, port_ptr = self._port_table(
            antenna_index, channel_index
        )
        phase, rss = scratch.settle(
            self._measure_rng,
            self.noise,
            reads.packed,
            table_ptr,
            port_ptr,
            len(table),
            self._measurement_bases_for,
            antenna_index,
            channel_index,
        )
        return ObservationBatch(
            self._epcs, reads, phase, rss, antenna_index, channel_index
        )

    def _present(self, reads: ReadColumns) -> ReadColumns:
        """The reads whose tag is present at its read time."""
        tag_index = reads.tag_index
        keep = self._always_present_np[tag_index]
        transient = np.flatnonzero(~keep)
        if not len(transient):
            return reads
        tags = self.tags
        for i, tag, t in zip(
            transient.tolist(),
            tag_index[transient].tolist(),
            reads.time_s[transient].tolist(),
        ):
            keep[i] = tags[tag].is_present(t)
        return ReadColumns.of_packed(reads.packed[keep], reads.round_index)

    def _settle_loop(
        self, reads: ReadColumns, antenna_index: int, channel_index: int
    ) -> List[TagObservation]:
        """Read by read: the no-compiler fallback and the compiled pass's
        oracle."""
        tag_index = reads.tag_index
        z = self._measure_rng.standard_normal(2 * len(reads)).tolist()
        # One gather per round; a NaN row is a tag not cached yet.
        table = self._port_table(antenna_index, channel_index)[0]
        rows = table[tag_index].tolist()
        noise = self.noise
        epcs = self._epcs
        bases_for = self._measurement_bases_for
        isnan = math.isnan
        new = tuple.__new__
        out = []
        for tag, t, (phase_base, rss_base), z_phase, z_rss in zip(
            tag_index.tolist(), reads.time_s.tolist(), rows, z[0::2], z[1::2]
        ):
            if isnan(phase_base):
                phase_base, rss_base = bases_for(
                    tag, antenna_index, channel_index, t
                )
            phase, rss = settle_report(
                phase_base, rss_base, z_phase, z_rss, noise
            )
            # ``tuple.__new__`` skips the NamedTuple's Python-level
            # ``__new__``; the record is an ordinary ``TagObservation``.
            out.append(
                new(
                    TagObservation,
                    (epcs[tag], t, phase, rss, antenna_index, channel_index),
                )
            )
        return out

    # ------------------------------------------------------------------

    def epcs(self) -> List[EPC]:
        """All tag identities in scene order."""
        return [tag.epc for tag in self.tags]
