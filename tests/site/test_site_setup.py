"""Site-wide set-up is paid once per site, not once per reader.

The channel plan (an R×R reader-pair table) is computed once by
``simulate_site``, and once by ``SiteSupervisor`` until a reader dies,
and handed to each reader task as its row.
"""

import numpy as np

from repro.gen2.epc import EPC
from repro.radio.measurement import TagObservation
from repro.site import site as site_module
from repro.site.channels import ChannelCoordinator
from repro.site.fusion import TIME_PRECISION, TagReport, observation_rows, rounded
from repro.site.site import (
    SiteConfig,
    build_reader,
    reachable_tag_indices,
    run_faulted_interval,
    simulate_site,
    site_tags,
)
from repro.site.supervisor import SiteSupervisor
from repro.site.topology import line_site
from repro.util.rng import RngStream
from repro.world.motion import CircularPath, Stationary


def _config():
    return SiteConfig(
        topology=line_site(8, 160, pitch_m=3.0, range_m=5.0),
        seed=4,
        duration_s=0.05,
        base_read_loss=0.1,
        coordinator=ChannelCoordinator(n_channels=3),
        n_mobile=3,
    )


def _count_plans(monkeypatch):
    calls = []
    original = ChannelCoordinator.interference_loss

    def counting(self, topology, alive=None):
        calls.append(alive)
        return original(self, topology, alive)

    monkeypatch.setattr(ChannelCoordinator, "interference_loss", counting)
    return calls


def test_simulate_site_plans_channels_once(monkeypatch):
    calls = _count_plans(monkeypatch)
    simulate_site(_config(), workers=1)
    assert calls == [None]


def test_supervisor_plans_channels_once_without_deaths(monkeypatch):
    calls = _count_plans(monkeypatch)
    report = SiteSupervisor(_config()).run(3, workers=1)
    assert report.n_deaths == 0
    assert calls == [None]


def _tag_report_rows(observations, reader_id):
    return [
        TagReport.from_observation(obs, reader_id).to_row()
        for obs in observations
    ]


def test_report_rows_equal_tag_report_rows():
    """Workers write each row straight from the observation; the rows
    are ``TagReport.from_observation(obs, rid).to_row()``, to the sign of
    every zero (``repr`` tells -0.0 from 0.0, ``==`` does not)."""
    epc = EPC(0x0ABC)
    edge = [0.0, -0.0, -1e-12, 1e-12, -4e-10, 5e-10, 1.0000000005, 2.5e-9]
    synthetic = [
        TagObservation(epc, t, phase, rss, 0, 3)
        for t, phase, rss in zip(edge, reversed(edge), edge[3:] + edge[:3])
    ]
    assert repr(observation_rows(synthetic, 7)) == repr(
        _tag_report_rows(synthetic, 7)
    )
    config = _config()
    reader = build_reader(config, 2, channel_offset=1, interference=0.05)
    observations, _, _ = run_faulted_interval(reader, config, 2, 0.05)
    assert observations
    assert repr(observation_rows(observations, 2)) == repr(
        _tag_report_rows(observations, 2)
    )


def _rounding_samples():
    """Seeded values at the scales of times, phases and RSS, of both signs
    and of random magnitudes; exact half-way points (``m / 1024`` for odd
    ``m`` is ``x.xxxxxxxxx5`` exactly) and their neighbours a few ulps
    away; zeros of both signs, values rounding to a signed zero, huge
    values, infinities and NaN."""
    rng = np.random.default_rng(2026)
    seeded = np.concatenate([
        rng.uniform(0.0, 100.0, 4000),
        rng.uniform(-7.0, 7.0, 4000),
        rng.uniform(-90.0, -20.0, 4000),
        rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-12, 17, 4000),
    ]).tolist()
    ties = [
        m / 1024.0
        for m in list(range(-4095, 4096, 2)) + [2**40 + 1, 3**30, -(5**20)]
    ]
    near = [
        float(np.nextafter(t, direction * np.inf))
        for t in ties[::16]
        for direction in (-1, 1)
    ]
    near += [
        t + k * float(np.spacing(t))
        for t in (1.0000000005, 2.5e-9, 0.0000000005, 123.4567890125)
        for k in range(-4, 5)
    ]
    edges = [0.0, -0.0, -1e-12, 1e-12, -4e-10, 5e-10, 4.9999999e-10,
             -5e-10, 2.0**52, -(2.0**51) - 0.5, 1e300, -1e300,
             float("inf"), -float("inf"), float("nan"), 5e-324]
    return seeded + ties + near + edges


def test_rounded_equals_python_round():
    """The vectorised rounding is ``round(x, 9)`` on every sample, to the
    sign of each zero (compared through ``repr``; NaN included)."""
    values = _rounding_samples()
    assert [repr(v) for v in rounded(values)] == [
        repr(round(v, TIME_PRECISION)) for v in values
    ]
    assert rounded([]) == []


def _site_tags_oracle(config, indices):
    """The shard's tags built one by one, each position through
    ``Stationary(np.asarray(position))``."""
    epcs = site_module.site_epcs(config)
    offsets = RngStream(config.seed).child("site-placement").uniform(
        0.0, 2.0 * np.pi, size=config.topology.n_tags
    )
    mobile = site_module.mobile_tag_indices(config)
    positions = config.topology.tag_positions()
    out = []
    for index in indices:
        if index in mobile:
            trajectory = site_module._mobile_trajectory(
                config, positions[index]
            )
        else:
            trajectory = Stationary(np.asarray(positions[index], dtype=float))
        out.append((epcs[index], trajectory, float(offsets[index])))
    return out


def test_shard_tags_match_per_tag_build_and_own_their_positions():
    config = _config()
    grid = site_module._cull_inputs(config).grid
    n_mobile = 0
    for reader_id in range(config.topology.n_readers):
        indices = reachable_tag_indices(config, reader_id)
        tags = site_tags(config, indices)
        expected = _site_tags_oracle(config, indices)
        assert len(tags) == len(expected)
        for tag, (epc, trajectory, offset) in zip(tags, expected):
            assert tag.epc is epc
            assert tag.phase_offset_rad == offset
            assert type(tag.trajectory) is type(trajectory)
            if isinstance(trajectory, CircularPath):
                n_mobile += 1
                got, want = tag.trajectory, trajectory
                assert got.center.tobytes() == want.center.tobytes()
                assert (got.radius, got.speed, got.phase0) == (
                    want.radius, want.speed, want.phase0
                )
                continue
            point = tag.trajectory.point
            assert point.tobytes() == trajectory.point.tobytes()
            assert point.shape == (3,) and point.dtype == np.float64
            # The process-wide cull memo is never handed out.
            assert not np.shares_memory(point, grid)
    assert n_mobile
    full = site_tags(config)
    assert len(full) == config.topology.n_tags
    assert not any(
        np.shares_memory(tag.trajectory.point, grid)
        for tag in full
        if type(tag.trajectory) is Stationary
    )
