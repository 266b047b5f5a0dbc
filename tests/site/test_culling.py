"""Culling safety: visibility-culled shards are provably behaviour-neutral.

The site fast path hands each reader only the tags its antenna could ever
power (``reachable_tag_indices``), with a guard band three orders of
magnitude wider than the scene's own range fold.  These properties pin the
two halves of that argument on drawn topologies and seeds:

- *neutrality* — the culled simulation's canonical payload is
  byte-identical to the unculled one (both sides fuse through the same
  default ``FusionLayer``, so the check isolates the cull);
- *safety* — every tag a reader actually reports in the full simulation
  is inside its culled shard (the cull never drops a reachable tag);
- *effectiveness* — on an aisle whose far end lies beyond the antenna
  range, the cull genuinely shrinks the shard (the fast path engages);
- *oracle agreement* — the vectorised cull returns exactly the index
  lists of the per-orbit scalar cull kept in ``tests/site/oracles.py``.
"""

from hypothesis import given, settings, strategies as st

from repro.site.channels import ChannelCoordinator
from repro.site.site import (
    SiteConfig,
    reachable_tag_indices,
    simulate_site,
    site_epcs,
)
from repro.site.topology import line_site, ring_site
from tests.site.oracles import reachable_tag_indices_reference


def _config(layout, n_readers, n_tags, seed, loss, n_mobile):
    if layout == "ring":
        topology = ring_site(n_readers, n_tags, radius_m=3.0, range_m=9.0)
    else:
        # Short range over a long aisle: distant grid columns fall outside
        # each reader's reach, so the cull has real work to do.
        topology = line_site(n_readers, n_tags, pitch_m=3.0, range_m=5.0)
    return SiteConfig(
        topology=topology,
        seed=seed,
        duration_s=0.08,
        base_read_loss=loss,
        coordinator=ChannelCoordinator(n_channels=4),
        n_mobile=n_mobile,
    )


site_settings = st.fixed_dictionaries(
    {
        "layout": st.sampled_from(["ring", "line"]),
        "n_readers": st.integers(min_value=1, max_value=4),
        "n_tags": st.sampled_from([24, 60, 150]),
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
        "loss": st.sampled_from([0.0, 0.3]),
        "n_mobile": st.integers(min_value=0, max_value=3),
    }
)


@settings(max_examples=12, deadline=None)
@given(site_settings)
def test_culled_site_is_byte_identical(params):
    """Culled ≡ unculled, byte for byte, on drawn topologies and seeds."""
    config = _config(**params)
    culled = simulate_site(config, workers=1, cull=True)
    full = simulate_site(config, workers=1, cull=False)
    assert culled.canonical_bytes() == full.canonical_bytes()


@settings(max_examples=12, deadline=None)
@given(site_settings)
def test_cull_keeps_every_reported_tag(params):
    """No reader ever reports an EPC its culled shard would have dropped."""
    config = _config(**params)
    epcs = site_epcs(config)
    full = simulate_site(config, workers=1, cull=False)
    for summary in full.reader_summaries:
        indices = reachable_tag_indices(config, summary["reader_id"])
        if indices is None:
            continue  # nothing culled: trivially safe
        shard_epcs = {epcs[i].value for i in indices}
        reported = {int(row[0], 16) for row in summary["reports"]}
        assert reported <= shard_epcs


def test_cull_shrinks_long_aisle_shards():
    """On a long line site the end readers cannot see the far end."""
    config = _config(
        layout="line", n_readers=6, n_tags=400, seed=3, loss=0.0, n_mobile=0
    )
    sizes = []
    for placement in config.topology.readers:
        indices = reachable_tag_indices(config, placement.reader_id)
        assert indices is not None, "a 6-reader aisle must cull something"
        sizes.append(len(indices))
    assert max(sizes) < config.topology.n_tags
    # The shards still jointly cover enough of the field to be a site.
    assert sum(sizes) > config.topology.n_tags


def test_ring_site_culls_nothing():
    """Full-overlap rings keep every tag (the cull returns None)."""
    config = _config(
        layout="ring", n_readers=3, n_tags=60, seed=0, loss=0.0, n_mobile=0
    )
    for placement in config.topology.readers:
        assert reachable_tag_indices(config, placement.reader_id) is None


def test_mobile_tags_culled_by_orbit_not_grid_slot():
    """Orbiting tags are judged by their whole trajectory, not one point.

    A mobile tag's orbit sweeps across reader zones, so a reader that
    cannot power the tag's *grid slot* may still read it mid-orbit — the
    cull must use the trajectory's distance lower bound.  Neutrality on a
    mobile-heavy aisle pins exactly that: any shard that wrongly culled a
    crossing tag would lose its reads and change the canonical payload.
    """
    config = _config(
        layout="line", n_readers=6, n_tags=400, seed=1, loss=0.1, n_mobile=8
    )
    from repro.site.site import mobile_tag_indices

    mobile = mobile_tag_indices(config)
    assert mobile
    kept_somewhere = set()
    for placement in config.topology.readers:
        indices = reachable_tag_indices(config, placement.reader_id)
        assert indices is not None
        kept_somewhere.update(set(indices) & mobile)
    # Orbits through the aisle pass at least one reader's zone.
    assert kept_somewhere
    culled = simulate_site(config, workers=1, cull=True)
    full = simulate_site(config, workers=1, cull=False)
    assert culled.canonical_bytes() == full.canonical_bytes()


@settings(max_examples=60, deadline=None)
@given(
    layout=st.sampled_from(["ring", "line"]),
    n_readers=st.integers(min_value=1, max_value=6),
    n_tags=st.sampled_from([24, 60, 150, 400]),
    range_m=st.sampled_from([2.0, 5.0, 9.0]),
    n_mobile=st.sampled_from([0, 1, 7]),
    range_scale=st.sampled_from([1.0, 1.3]),
)
def test_vectorised_cull_matches_per_orbit_oracle(
    layout, n_readers, n_tags, range_m, n_mobile, range_scale
):
    """The memoised, vectorised cull returns the oracle's exact lists.

    ``range_scale=1.3`` is the supervisor's coverage boost; the short
    ranges make ring layouts cull too, so both return shapes (``None``
    and an index list) are compared.
    """
    if layout == "ring":
        topology = ring_site(n_readers, n_tags, radius_m=3.0, range_m=range_m)
    else:
        topology = line_site(n_readers, n_tags, pitch_m=3.0, range_m=range_m)
    config = SiteConfig(topology=topology, n_mobile=n_mobile)
    for placement in topology.readers:
        assert reachable_tag_indices(
            config, placement.reader_id, range_scale=range_scale
        ) == reachable_tag_indices_reference(
            config, placement.reader_id, range_scale=range_scale
        )
