"""Physical constants and regulatory channel plans.

The paper's testbed operates in the Chinese UHF RFID band (920–926 MHz,
16 channels); a single-channel plan is also provided for experiments where
frequency hopping is deliberately disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def wavelength(freq_hz: float) -> float:
    """Free-space wavelength (m) at ``freq_hz``."""
    if freq_hz <= 0:
        raise ValueError("frequency must be positive")
    return SPEED_OF_LIGHT / freq_hz


@dataclass(frozen=True)
class ChannelPlan:
    """An ordered set of carrier frequencies plus a hop dwell time."""

    name: str
    frequencies_hz: Tuple[float, ...]
    hop_dwell_s: float = 0.2

    def __post_init__(self) -> None:
        if not self.frequencies_hz:
            raise ValueError("channel plan needs at least one frequency")
        if self.hop_dwell_s <= 0:
            raise ValueError("hop dwell must be positive")

    def __len__(self) -> int:
        return len(self.frequencies_hz)

    def frequency(self, channel_index: int) -> float:
        """Carrier frequency (Hz) of a channel (wraps modulo plan size)."""
        return self.frequencies_hz[channel_index % len(self.frequencies_hz)]

    def wavelength(self, channel_index: int) -> float:
        """Wavelength (m) of a channel."""
        return wavelength(self.frequency(channel_index))


def china_920_926(n_channels: int = 16, hop_dwell_s: float = 0.2) -> ChannelPlan:
    """The 920–926 MHz Chinese UHF band used by the paper (16 channels)."""
    if n_channels < 1:
        raise ValueError("need at least one channel")
    span = 926.0e6 - 920.0e6
    spacing = span / n_channels
    freqs = tuple(920.0e6 + spacing * (k + 0.5) for k in range(n_channels))
    return ChannelPlan("CN-920-926", freqs, hop_dwell_s)


def single_channel(freq_hz: float = 922.875e6) -> ChannelPlan:
    """A fixed-frequency plan (hopping disabled)."""
    return ChannelPlan("fixed", (freq_hz,), hop_dwell_s=1e9)
