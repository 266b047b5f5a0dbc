"""Multi-reader warehouse sites: topology, channel planning, fusion, sharding.

A *site* is the warehouse-scale counterpart of the paper's single-reader
testbed: N COTS readers with overlapping coverage zones over one shared tag
field.  The package splits the problem into four deterministic layers:

- :mod:`repro.site.topology` — where the readers stand and where the tags
  are (declarative, picklable, seeded nowhere);
- :mod:`repro.site.channels` — the channel-plan coordinator: which channel
  offset each reader hops on, and how much co-channel / adjacent-channel
  RF interference from its neighbours degrades its slot success;
- :mod:`repro.site.fusion` — the fusion layer: dedups and merges tag
  reports across readers with per-EPC provenance and deterministic
  staleness arbitration;
- :mod:`repro.site.site` — :func:`~repro.site.site.simulate_site`, which
  runs one :class:`~repro.reader.SimReader` task per placement across the
  deterministic process pool
  (:func:`repro.experiments.parallel.parallel_map`) and fuses the reports,
  with byte-stable results at every worker count;
- :mod:`repro.site.supervisor` — the :class:`SiteSupervisor`: epoch-driven
  fleet supervision with a missed-report watchdog, dynamic channel
  re-planning over survivors, coverage rebalancing, warm rejoin from
  checkpoints, and per-outage incident bundles.

See ``docs/site.md`` for the topology format, the interference model, the
fusion semantics, the sharding guarantees, and the failure-mode /
failover story.
"""

from repro.site.channels import ChannelCoordinator
from repro.site.fusion import FusedRecord, FusionLayer, TagReport
from repro.site.site import SiteConfig, SiteRun, simulate_site
from repro.site.supervisor import (
    OutageEpisode,
    SiteChaosReport,
    SitePolicy,
    SiteSupervisor,
    site_config_hash,
)
from repro.site.topology import (
    ReaderPlacement,
    SiteTopology,
    line_site,
    ring_site,
)

__all__ = [
    "ChannelCoordinator",
    "FusedRecord",
    "FusionLayer",
    "TagReport",
    "OutageEpisode",
    "ReaderPlacement",
    "SiteChaosReport",
    "SitePolicy",
    "SiteSupervisor",
    "SiteTopology",
    "line_site",
    "ring_site",
    "site_config_hash",
    "SiteConfig",
    "SiteRun",
    "simulate_site",
]
