"""Phase I: the motion assessor.

Maintains one Gaussian-mixture immobility stack per (tag, antenna, channel)
shard — COTS readers report phase against an arbitrary per-channel LO
reference, so a single stack across channels would see spurious jumps on
every hop.  The per-cycle verdict for a tag aggregates its shard verdicts:
by default a tag is *moving* if any shard saw an unmatched reading during
the cycle ("any" rule; a 1 cm displacement is often visible from only the
best-placed antenna).

Life-cycle rules from Section 4.3 are implemented: stacks are created on a
tag's first appearance (so an unseen tag starts "in motion" — it has no
reliable modes), and stacks of tags unseen for ``expire_after_s`` are
dropped to bound memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.gmm import GaussianMixtureStack, GmmParams, UpdateResult
from repro.radio.measurement import TagObservation

ShardKey = Tuple[int, int, int]  # (epc value, antenna index, channel index)


@dataclass
class TagAssessment:
    """Per-tag verdict for one cycle."""

    epc_value: int
    n_readings: int
    n_motion_flags: int
    moving: bool


@dataclass
class AssessorStats:
    """Aggregate counters (useful for dashboards and tests)."""

    n_tags: int = 0
    n_shards: int = 0
    n_expired: int = 0


class MotionAssessor:
    """Streaming Phase I motion assessment over tag observations."""

    def __init__(
        self,
        params: Optional[GmmParams] = None,
        vote_rule: str = "any",
        expire_after_s: float = 60.0,
        key_by_channel: bool = True,
    ) -> None:
        if vote_rule not in ("any", "majority"):
            raise ValueError(f"unknown vote rule {vote_rule!r}")
        self.params = params or GmmParams.for_phase()
        self.vote_rule = vote_rule
        self.expire_after_s = expire_after_s
        self.key_by_channel = key_by_channel
        self._stacks: Dict[ShardKey, GaussianMixtureStack] = {}
        self._last_seen: Dict[int, float] = {}  # epc value -> last read time
        self._cycle_flags: Dict[int, List[bool]] = {}
        self.stats = AssessorStats()

    # ------------------------------------------------------------------
    def _shard_key(self, obs: TagObservation) -> ShardKey:
        channel = obs.channel_index if self.key_by_channel else 0
        return (obs.epc.value, obs.antenna_index, channel)

    def observe(self, obs: TagObservation) -> UpdateResult:
        """Feed one reading; updates the relevant shard and cycle votes."""
        epc_value = obs.epc.value
        key = (
            epc_value,
            obs.antenna_index,
            obs.channel_index if self.key_by_channel else 0,
        )
        stack = self._stacks.get(key)
        if stack is None:
            stack = GaussianMixtureStack(self.params, circular=True)
            self._stacks[key] = stack
        result = stack.update(obs.phase_rad)
        self._last_seen[epc_value] = obs.time_s
        flags = self._cycle_flags.get(epc_value)
        if flags is None:
            self._cycle_flags[epc_value] = flags = []
        flags.append(not result.stationary)
        return result

    def observe_all(self, observations: Iterable[TagObservation]) -> None:
        """Feed a batch of readings (see :meth:`observe`)."""
        for obs in observations:
            self.observe(obs)

    # ------------------------------------------------------------------
    def assess(self) -> Dict[int, TagAssessment]:
        """Close the cycle: per-tag verdicts from the accumulated votes.

        Clears the per-cycle vote buffer; learning state persists across
        cycles.
        """
        verdicts: Dict[int, TagAssessment] = {}
        for epc_value, flags in self._cycle_flags.items():
            n_flags = sum(flags)
            if self.vote_rule == "any":
                moving = n_flags > 0
            else:
                moving = n_flags * 2 > len(flags)
            verdicts[epc_value] = TagAssessment(
                epc_value=epc_value,
                n_readings=len(flags),
                n_motion_flags=n_flags,
                moving=moving,
            )
        self._cycle_flags.clear()
        self.stats.n_tags = len(self._last_seen)
        self.stats.n_shards = len(self._stacks)
        return verdicts

    # ------------------------------------------------------------------
    def expire(self, now_s: float) -> int:
        """Drop models of tags unseen for ``expire_after_s``; returns count."""
        stale = {
            epc
            for epc, last in self._last_seen.items()
            if now_s - last > self.expire_after_s
        }
        if not stale:
            return 0
        self._stacks = {
            key: stack
            for key, stack in self._stacks.items()
            if key[0] not in stale
        }
        for epc in stale:
            del self._last_seen[epc]
            self._cycle_flags.pop(epc, None)
        self.stats.n_expired += len(stale)
        return len(stale)
