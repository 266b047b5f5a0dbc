"""Straightforward site implementations kept as test oracles.

The production visibility cull (``repro.site.site.reachable_tag_indices``)
reads memoised per-site arrays and bounds every mobile orbit in one numpy
expression.  The oracle here spells the same cull out the plain way:
rebuild the grid array per call and ask each mobile tag's
``CircularPath`` for its distance bounds one tag at a time.
"""

from typing import List, Optional

import numpy as np

from repro.site.site import (
    CULL_MARGIN_REL,
    SiteConfig,
    _mobile_trajectory,
    mobile_tag_indices,
)


def reachable_tag_indices_reference(
    config: SiteConfig, reader_id: int, *, range_scale: float = 1.0
) -> Optional[List[int]]:
    """The per-orbit cull: ascending kept indices, ``None`` if all kept."""
    placement = config.topology.reader(reader_id)
    apos = np.asarray(placement.position, dtype=float)
    range_m = placement.range_m * range_scale
    limit = range_m + CULL_MARGIN_REL * (range_m + 1.0)
    positions = config.topology.tag_positions()
    grid = np.asarray(positions, dtype=float)
    dist = np.sqrt(((grid - apos) ** 2).sum(axis=1))
    for index in mobile_tag_indices(config):
        bounds = _mobile_trajectory(
            config, positions[index]
        ).distance_bounds(apos)
        # Unbounded trajectories can come arbitrarily close: never cull.
        dist[index] = bounds[0] if bounds is not None else 0.0
    keep = dist <= limit
    if bool(keep.all()):
        return None
    return [int(i) for i in np.nonzero(keep)[0]]
