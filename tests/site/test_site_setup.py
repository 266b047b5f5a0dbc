"""Site-wide set-up is paid once per site, not once per reader.

The channel plan (an R×R reader-pair table) is computed once by
``simulate_site``, and once by ``SiteSupervisor`` until a reader dies,
and handed to each reader task as its row.
"""

from repro.site.channels import ChannelCoordinator
from repro.site.site import SiteConfig, simulate_site
from repro.site.supervisor import SiteSupervisor
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
