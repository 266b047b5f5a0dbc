"""RF substrate: channel plans, geometry, multipath backscatter channel,
and the measurement model producing (phase, RSS) observations."""

from repro.radio.channel import backscatter_gain, path_loss_amplitude
from repro.radio.constants import (
    SPEED_OF_LIGHT,
    ChannelPlan,
    china_920_926,
    wavelength,
)
from repro.radio.geometry import as_point, distance
from repro.radio.measurement import NoiseModel, TagObservation, measure

__all__ = [
    "ChannelPlan",
    "NoiseModel",
    "SPEED_OF_LIGHT",
    "TagObservation",
    "as_point",
    "backscatter_gain",
    "china_920_926",
    "distance",
    "measure",
    "path_loss_amplitude",
    "wavelength",
]
