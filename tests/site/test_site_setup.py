"""Site-wide set-up is paid once per site, not once per reader.

The channel plan (an R×R reader-pair table) is computed once by
``simulate_site`` and ``Site.readers`` and handed to each reader, and the
readers built that way are the readers ``build_reader`` builds on its own.
"""

from repro.site.channels import ChannelCoordinator
from repro.site.site import Site, SiteConfig, build_reader, simulate_site
from repro.site.topology import line_site


def _config():
    return SiteConfig(
        topology=line_site(8, 160, pitch_m=3.0, range_m=5.0),
        seed=4,
        duration_s=0.05,
        base_read_loss=0.1,
        coordinator=ChannelCoordinator(n_channels=3),
        n_mobile=3,
    )


def test_simulate_site_plans_channels_once(monkeypatch):
    calls = []
    original = ChannelCoordinator.interference_loss

    def counting(self, topology, alive=None):
        calls.append(alive)
        return original(self, topology, alive)

    monkeypatch.setattr(ChannelCoordinator, "interference_loss", counting)
    simulate_site(_config(), workers=1)
    assert calls == [None]


def _fingerprint(reader):
    observations, log = reader.run_duration(0.05)
    return (
        reader.engine.read_loss_probability,
        reader.scene.channel_plan,
        [tag.epc for tag in reader.scene.tags],
        observations,
        (log.n_rounds, log.n_slots, log.n_lost),
    )


def test_site_readers_equal_default_build_reader():
    config = _config()
    readers = Site(config).readers()
    assert len(readers) == config.topology.n_readers
    losses = set()
    for placement, reader in zip(config.topology.readers, readers):
        expected = build_reader(config, placement.reader_id)
        assert _fingerprint(reader) == _fingerprint(expected)
        losses.add(reader.engine.read_loss_probability)
    # The plan genuinely differs per reader (edge vs interior readers).
    assert len(losses) > 1

