"""Composable, seedable fault model for the simulated RFID deployment.

Deployed Gen2 systems are dominated by read loss and missing-tag behaviour
(Jacobsen et al., Chu et al.); the seed simulator was fair-weather.  A
:class:`FaultPlan` describes *what* can go wrong, declaratively and
serialisably; the :class:`~repro.faults.injector.FaultInjector` turns a plan
plus a seed into deterministic draws, so any failure scenario replays
bit-identically.

The taxonomy (see ``docs/faults.md``):

- **iid report loss** — each tag report independently dropped with
  probability ``report_loss``;
- **burst erasures** — a two-state Gilbert-Elliott channel: reports are
  dropped while the channel sits in its bad state (``burst_enter`` /
  ``burst_exit`` transition probabilities per report);
- **phase-noise spikes** — with probability ``phase_spike`` a report's RF
  phase is perturbed by a zero-mean Gaussian of ``phase_spike_std_rad``;
- **duplicated reports** — with probability ``duplicate`` a report is
  delivered twice (LLRP keep-alive retransmission behaviour);
- **reordered reports** — with probability ``reorder`` per round, delivery
  order within the round is permuted (reports are timestamped, so only
  order-sensitive consumers notice);
- **delayed reports** — with probability ``delay`` a report is held back and
  delivered together with the *next* round's batch;
- **reader disconnects** — the connection drops at each simulated time in
  ``disconnect_at_s``; in-flight reports of the interrupted operation are
  lost and the client must reconnect;
- **antenna blackouts** — ``(antenna_index, start_s, end_s)`` windows during
  which one antenna's reports all vanish (cable knocked loose, port fault);
- **reader crashes** — at ``at_s`` the reader dies for ``downtime_s``
  seconds: every operation fails until it reboots, in-flight reports are
  lost, and the reboot bumps the reader's ``session_epoch`` so clients know
  that all reader-held session state (registered ROSpecs, Select flags) is
  gone and must be re-established;
- **channel jamming bursts** — ``(channel_index, start_s, end_s)`` windows
  during which every report on one hopping channel is destroyed by an
  interferer (``channel_index=-1`` jams the whole band).

All probabilities default to zero and a zero plan is a *strict no-op*: the
injector draws no random numbers and returns its inputs unchanged, so
running the engine under ``FaultPlan.none()`` is bit-identical to not
injecting at all.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Dict, Tuple


@dataclass(frozen=True)
class AntennaBlackout:
    """One antenna silenced during [start_s, end_s)."""

    antenna_index: int
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.antenna_index < 0:
            raise ValueError("antenna index must be non-negative")
        if self.end_s <= self.start_s:
            raise ValueError("blackout window must have positive width")

    def covers(self, antenna_index: int, time_s: float) -> bool:
        """True when a report from this antenna at this time is silenced."""
        return (
            antenna_index == self.antenna_index
            and self.start_s <= time_s < self.end_s
        )

    def to_dict(self) -> Dict[str, float]:
        """JSON-friendly form (inverse of the constructor kwargs)."""
        return {
            "antenna_index": self.antenna_index,
            "start_s": self.start_s,
            "end_s": self.end_s,
        }


@dataclass(frozen=True)
class ReaderCrash:
    """The reader process dies at ``at_s`` and reboots ``downtime_s`` later.

    While down, every operation raises a connection error without advancing
    time (the box is simply gone); after the reboot the reader answers again
    but has forgotten all session state, which it signals by incrementing
    its ``session_epoch``.
    """

    at_s: float
    downtime_s: float

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("crash time must be non-negative")
        if self.downtime_s <= 0:
            raise ValueError("crash downtime must be positive")

    @property
    def up_at_s(self) -> float:
        """First simulated time at which the rebooted reader answers."""
        return self.at_s + self.downtime_s

    def covers(self, time_s: float) -> bool:
        """True while the reader is down at ``time_s``."""
        return self.at_s <= time_s < self.up_at_s

    def to_dict(self) -> Dict[str, float]:
        """JSON-friendly form (inverse of the constructor kwargs)."""
        return {"at_s": self.at_s, "downtime_s": self.downtime_s}


@dataclass(frozen=True)
class ChannelJam:
    """An interferer destroying one channel's reports during a window.

    ``channel_index=-1`` jams every channel (a wide-band interferer).
    """

    channel_index: int
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.channel_index < -1:
            raise ValueError("channel index must be >= -1")
        if self.end_s <= self.start_s:
            raise ValueError("jam window must have positive width")

    def covers(self, channel_index: int, time_s: float) -> bool:
        """True when a report on this channel at this time is destroyed."""
        return (
            self.channel_index in (-1, channel_index)
            and self.start_s <= time_s < self.end_s
        )

    def to_dict(self) -> Dict[str, float]:
        """JSON-friendly form (inverse of the constructor kwargs)."""
        return {
            "channel_index": self.channel_index,
            "start_s": self.start_s,
            "end_s": self.end_s,
        }


_PROBABILITY_FIELDS = (
    "report_loss",
    "burst_enter",
    "burst_exit",
    "phase_spike",
    "duplicate",
    "reorder",
    "delay",
)


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of every fault the injector may apply."""

    #: iid per-report drop probability.
    report_loss: float = 0.0
    #: Gilbert-Elliott entry probability (good -> bad) per report.
    burst_enter: float = 0.0
    #: Gilbert-Elliott exit probability (bad -> good) per report.
    burst_exit: float = 0.5
    #: Per-report probability of a phase-noise spike.
    phase_spike: float = 0.0
    #: Standard deviation of an injected phase spike (radians).
    phase_spike_std_rad: float = 1.0
    #: Per-report duplication probability.
    duplicate: float = 0.0
    #: Per-round probability of permuting delivery order.
    reorder: float = 0.0
    #: Per-report probability of deferral into the next round's batch.
    delay: float = 0.0
    #: Simulated times at which the reader connection drops (each once).
    disconnect_at_s: Tuple[float, ...] = ()
    #: Antenna outage windows.
    blackouts: Tuple[AntennaBlackout, ...] = ()
    #: Reader crash/reboot windows (sorted by crash time).
    crashes: Tuple[ReaderCrash, ...] = ()
    #: Channel jamming bursts.
    jams: Tuple[ChannelJam, ...] = ()

    def __post_init__(self) -> None:
        for name in _PROBABILITY_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.burst_enter > 0 and self.burst_exit <= 0:
            raise ValueError(
                "burst_exit must be positive when burst_enter is set, "
                "otherwise the bad state is absorbing"
            )
        if self.phase_spike_std_rad < 0:
            raise ValueError("phase spike std must be non-negative")
        if any(t < 0 for t in self.disconnect_at_s):
            raise ValueError("disconnect times must be non-negative")
        if list(self.disconnect_at_s) != sorted(self.disconnect_at_s):
            object.__setattr__(
                self, "disconnect_at_s", tuple(sorted(self.disconnect_at_s))
            )
        by_time = tuple(sorted(self.crashes, key=lambda c: c.at_s))
        if by_time != self.crashes:
            object.__setattr__(self, "crashes", by_time)
        for earlier, later in zip(self.crashes, self.crashes[1:]):
            if later.at_s < earlier.up_at_s:
                raise ValueError(
                    "crash windows overlap: the reader cannot die twice"
                )

    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: injecting it is a strict no-op."""
        return cls()

    @cached_property
    def is_noop(self) -> bool:
        """True when no fault can ever fire under this plan (computed once:
        the plan is frozen, and the reader asks every round)."""
        return (
            all(getattr(self, f) == 0.0 for f in _PROBABILITY_FIELDS if f != "burst_exit")
            and not self.disconnect_at_s
            and not self.blackouts
            and not self.crashes
            and not self.jams
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form; ``from_dict`` round-trips it exactly."""
        data: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("blackouts", "crashes", "jams"):
                data[f.name] = [item.to_dict() for item in value]
            elif f.name == "disconnect_at_s":
                data[f.name] = list(value)
            else:
                data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault plan keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "blackouts" in kwargs:
            kwargs["blackouts"] = tuple(
                AntennaBlackout(**b) for b in kwargs["blackouts"]  # type: ignore[arg-type]
            )
        if "crashes" in kwargs:
            kwargs["crashes"] = tuple(
                ReaderCrash(**c) for c in kwargs["crashes"]  # type: ignore[arg-type]
            )
        if "jams" in kwargs:
            kwargs["jams"] = tuple(
                ChannelJam(**j) for j in kwargs["jams"]  # type: ignore[arg-type]
            )
        if "disconnect_at_s" in kwargs:
            kwargs["disconnect_at_s"] = tuple(kwargs["disconnect_at_s"])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]
