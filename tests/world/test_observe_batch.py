"""Oracle test of ``Scene.observe_batch`` against per-read ``Scene.observe``.

The batch turns a round's reads into reports in one pass: one noise draw
per round, cached bases, inline quantisation.  Each case builds two
same-seed scenes, feeds the same reads to ``observe_batch`` on one and to
``observe`` (read by read, skipping absent tags, with no cached bases) on
the other, and checks that the reports agree bit for bit — the sign of a
zero included — and that both measurement generators end at the same
position.
"""

import math
import pickle

import numpy as np

from repro.gen2.aloha import QAdaptive
from repro.gen2.epc import random_epc_population
from repro.gen2.inventory import InventoryEngine, TagRead
from repro.gen2.timing import R420_PROFILE
from repro.radio.channel import backscatter_gain
from repro.radio.constants import china_920_926, single_channel
from repro.radio.measurement import NoiseModel, TagObservation
from repro.reader.reader import SimReader
from repro.reader.sessioned import SessionedReader
from repro.util.circular import TWO_PI
from repro.world.motion import LinearPath, Stationary
from repro.world.objects import AmbientObject
from repro.world.scene import Antenna, Scene, TagInstance

EPCS = random_epc_population(6, rng=7)
ANTENNAS = [Antenna((0.0, 0.0, 1.5)), Antenna((3.0, 0.0, 1.5))]


def _static_tags(n=4):
    return [
        TagInstance(epc=EPCS[i], trajectory=Stationary((0.4 * i, 1.0, 0.8)))
        for i in range(n)
    ]


def _bits(observations):
    """Reports with every float as its hex form, so -0.0 != 0.0."""
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in obs)
        for obs in observations
    ]


def _round(tag_indices, start_s, round_index=0):
    return [
        TagRead(tag, start_s + 0.002 * slot, round_index, slot)
        for slot, tag in enumerate(tag_indices)
    ]


def _observe_uncached(scene, read, antenna, channel):
    """``Scene.observe`` with the bases computed afresh, not cached."""
    scene._invalidate_caches()
    return scene.observe(read.tag_index, antenna, channel, read.time_s)


def assert_matches_per_read(build, rounds):
    """``rounds`` holds ``(reads, antenna, channel)`` per inventory round."""
    batch_scene, scalar_scene = build(), build()
    for reads, antenna, channel in rounds:
        got = batch_scene.observe_batch(reads, antenna, channel)
        want = [
            _observe_uncached(scalar_scene, read, antenna, channel)
            for read in reads
            if scalar_scene.tags[read.tag_index].is_present(read.time_s)
        ]
        assert _bits(got) == _bits(want)
    assert batch_scene._measure_rng.random() == scalar_scene._measure_rng.random()


def test_static_tags():
    def build():
        return Scene(ANTENNAS, _static_tags(), seed=3)

    # Repeated rounds on both antennas: the first fills the bases cache,
    # the later ones read from it.
    assert_matches_per_read(
        build,
        [
            (_round([2, 0, 3, 1], 0.0), 0, 0),
            (_round([1, 3], 0.1, 1), 1, 0),
            (_round([0, 1, 2, 3], 0.2, 2), 0, 0),
            ([], 1, 0),
            (_round([3, 2, 1, 0], 0.3, 3), 1, 0),
        ],
    )


def test_moving_tag():
    def build():
        tags = _static_tags(3) + [
            TagInstance(
                epc=EPCS[3],
                trajectory=LinearPath((0.0, 1.5, 0.8), (0.3, 0.0, 0.0)),
            )
        ]
        return Scene(ANTENNAS, tags, seed=4)

    assert_matches_per_read(
        build,
        [
            (_round([3, 0, 1, 2], 0.0), 0, 0),
            (_round([3, 0, 1, 2], 0.5, 1), 0, 0),
            (_round([2, 3], 1.0, 2), 1, 0),
        ],
    )


def test_moving_reflector():
    def build():
        walker = AmbientObject(
            LinearPath((1.0, 0.5, 1.0), (0.0, 0.4, 0.0)), 0.5
        )
        return Scene(ANTENNAS, _static_tags(), [walker], seed=5)

    assert not build()._environment_static()
    assert_matches_per_read(
        build,
        [
            (_round([0, 1, 2, 3], 0.0), 0, 0),
            (_round([0, 1, 2, 3], 0.7, 1), 0, 0),
            (_round([3, 1], 1.4, 2), 1, 0),
        ],
    )


def test_two_channels():
    def build():
        return Scene(
            ANTENNAS, _static_tags(), channel_plan=china_920_926(2), seed=6
        )

    assert_matches_per_read(
        build,
        [
            (_round([0, 1, 2, 3], 0.0), 0, 0),
            (_round([0, 1, 2, 3], 0.3, 1), 0, 1),
            (_round([2, 0], 0.6, 2), 0, 0),
            (_round([3, 1], 0.9, 3), 1, 1),
        ],
    )


def test_tag_leaving_mid_round_draws_nothing():
    def build():
        tags = _static_tags(3) + [
            TagInstance(
                epc=EPCS[3],
                trajectory=Stationary((1.0, 2.0, 0.8)),
                exit_time=0.005,
            ),
            TagInstance(
                epc=EPCS[4],
                trajectory=Stationary((1.5, 2.0, 0.8)),
                blocked_intervals=((0.1, 0.2),),
            ),
        ]
        return Scene(ANTENNAS, tags, seed=8)

    # Tag 3 leaves at 5 ms: read at 2 ms in the first round, its read at
    # 7 ms in the second comes after it left.  Tag 4 is blocked for the
    # whole third round.
    rounds = [
        (_round([0, 3, 1, 2, 4], 0.0), 0, 0),
        (_round([0, 1, 3, 2], 0.003, 1), 0, 0),
        (_round([3, 4], 0.15, 2), 1, 0),
        (_round([4, 2, 3], 0.3, 3), 0, 0),
    ]
    assert_matches_per_read(build, rounds)

    scene = build()
    assert len(scene.observe_batch(*rounds[0])) == 5
    assert [obs.epc for obs in scene.observe_batch(*rounds[1])] == [
        EPCS[0], EPCS[1], EPCS[2]
    ]
    # A round whose every read is absent reports nothing and leaves the
    # generator where an untouched twin's is.
    untouched = build()
    assert build().observe_batch(*rounds[2]) == []
    probe = build()
    probe.observe_batch(*rounds[2])
    assert probe._measure_rng.random() == untouched._measure_rng.random()


def test_engine_settled_reads():
    engine = InventoryEngine(
        R420_PROFILE, lambda: QAdaptive(initial_q=4), rng=13
    )
    rounds, t = [], 0.0
    for round_index in range(3):
        log = engine.run_round(range(5), start_time_s=t)
        rounds.append((log.reads, round_index % 2, 0))
        t = log.end_time_s
    # Tag 4 leaves halfway through the second round's reads.
    second = sorted(read.time_s for read in rounds[1][0])
    exit_s = second[len(second) // 2]

    def build():
        tags = _static_tags(4) + [
            TagInstance(
                epc=EPCS[4],
                trajectory=Stationary((1.5, 2.0, 0.8)),
                exit_time=exit_s,
            )
        ]
        return Scene(ANTENNAS, tags, seed=14)

    assert_matches_per_read(build, rounds)


def test_sessioned_rounds_match_per_read_loop():
    """``SessionedReader`` rounds report, bit for bit, what a per-read
    ``observe`` loop that skips absent tags reports on a same-seed twin."""

    def build():
        tags = _static_tags(4) + [
            TagInstance(
                epc=EPCS[4], trajectory=Stationary((1.5, 2.0, 0.8)), exit_time=0.3
            )
        ]
        scene = Scene(ANTENNAS, tags, channel_plan=single_channel(), seed=21)
        return SessionedReader(scene, flag_seed=23, seed=22)

    sessioned, reader = build(), build()
    store = reader.flags
    n_reports = 0
    for _ in range(40):
        got = sessioned.inventory_round(0).observations
        eligible = store.filter_participants(
            SimReader.participants(reader, 0, []), reader.time_s
        )
        log = reader.engine.run_round(eligible, start_time_s=reader.time_s)
        want = []
        for read in log.reads:
            if not reader.scene.tags[read.tag_index].is_present(read.time_s):
                continue
            want.append(
                reader.scene.observe(
                    read.tag_index, 0, reader.channel_index, read.time_s
                )
            )
            store.mark_read(read.tag_index, read.time_s)
        reader.time_s = log.end_time_s
        assert _bits(got) == _bits(want)
        n_reports += len(got)
    assert n_reports >= 5


def test_phase_base_just_below_zero_quantises_to_positive_zero():
    noise = NoiseModel(phase_noise_std_rad=0.0)
    quantum = noise.phase_quantum_rad

    def build(offset=0.0):
        tags = [
            TagInstance(
                epc=EPCS[0],
                trajectory=Stationary((0.5, 1.0, 0.8)),
                phase_offset_rad=offset,
            )
        ]
        return Scene(ANTENNAS, tags, noise=noise, seed=9)

    base, _ = build()._measurement_bases_for(0, 0, 0, 0.0)
    offset = -base - quantum / 4

    def shifted():
        return build(offset)

    shifted_base, _ = shifted()._measurement_bases_for(0, 0, 0, 0.0)
    assert -quantum / 2 < shifted_base < 0.0
    assert_matches_per_read(shifted, [(_round([0, 0, 0], 0.0), 0, 0)])
    for obs in shifted().observe_batch(_round([0, 0], 0.0), 0, 0):
        assert obs.phase_rad == 0.0
        assert math.copysign(1.0, obs.phase_rad) == 1.0


def _offset_for_phase_base(build, target):
    """A tag phase offset that makes ``build(offset)``'s phase base
    (angle + offset + LO offset, rounded twice) exactly ``target``."""
    scene = build()
    lo = scene.lo_offset(0, 0)
    angle = float(np.angle(backscatter_gain(
        ANTENNAS[0].position,
        scene.tags[0].trajectory.position(0.0),
        scene.channel_plan.frequency(0),
    )))
    for partial in _neighbours(target - lo):
        if partial + lo != target:
            continue
        for offset in _neighbours(partial - angle):
            if angle + offset == partial:
                return offset
    raise AssertionError("no offset reaches the target")


def _neighbours(x, steps=8):
    below, above = [x], [x]
    for _ in range(steps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return [x] + below[1:] + above[1:]


def test_phase_base_at_minus_two_pi_wraps_to_positive_zero():
    """With no noise and no quantisation a phase base of exactly -2*pi is
    the pre-wrap phase: ``observe`` wraps it with ``np.mod`` and
    ``observe_batch`` with ``fmod``, and both give +0.0."""
    noise = NoiseModel(
        phase_noise_std_rad=0.0,
        rss_noise_std_db=0.0,
        phase_quantum_rad=0.0,
        rss_quantum_db=0.0,
    )

    def build(offset=0.0):
        tags = [
            TagInstance(
                epc=EPCS[0],
                trajectory=Stationary((0.5, 1.0, 0.8)),
                phase_offset_rad=offset,
            )
        ]
        return Scene(ANTENNAS, tags, noise=noise, seed=9)

    offset = _offset_for_phase_base(build, -TWO_PI)

    def shifted():
        return build(offset)

    assert shifted()._measurement_bases_for(0, 0, 0, 0.0)[0] == -TWO_PI
    # Two rounds: the first computes the bases, the second gathers them.
    rounds = [(_round([0], 0.0), 0, 0), (_round([0, 0], 0.1, 1), 0, 0)]
    assert_matches_per_read(shifted, rounds)
    scene = shifted()
    for reads, antenna, channel in rounds:
        for obs in scene.observe_batch(reads, antenna, channel):
            assert obs.phase_rad == 0.0
            assert math.copysign(1.0, obs.phase_rad) == 1.0


def test_records_are_real_namedtuples():
    engine = InventoryEngine(
        R420_PROFILE, lambda: QAdaptive(initial_q=4), rng=11
    )
    reads = engine.run_round([0, 1, 2, 3]).reads
    assert len(reads) == 4
    scene = Scene(ANTENNAS, _static_tags(), seed=12)
    observations = scene.observe_batch(reads, 0, 0)
    assert len(observations) == 4
    for record, cls in [(reads[0], TagRead), (observations[0], TagObservation)]:
        assert type(record) is cls
        assert record == cls(*record)
        assert record == cls(**record._asdict())
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls and copy == record
    read, obs = reads[0], observations[0]
    assert obs.epc == EPCS[read.tag_index]
    assert obs.time_s == read.time_s
    assert obs.key() == (0, 0)
