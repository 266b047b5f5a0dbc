"""Rotating, crash-safe checkpoint store for the supervised runtime.

Built on :mod:`repro.core.persistence`'s snapshot envelopes (atomic write,
version, checksum), this adds the deployment-level concerns:

- **generations** — the previous checkpoint is rotated to ``<name>.1``
  before the new one lands, so a snapshot corrupted *at rest* (the chaos
  soak harness does this deliberately) still leaves a warm-restart path;
- **config hash** — a fingerprint of the deployment (tag count, antenna
  layout, channel plan, model knobs) stamped into every envelope; loading
  refuses a snapshot whose fingerprint differs from the live run and the
  supervisor then degrades to a cold start with a logged warning instead
  of silently resuming incompatible state.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.config import TagwatchConfig
from repro.core.persistence import (
    SnapshotError,
    SnapshotMismatchError,
    read_snapshot,
    write_snapshot,
)
from repro.obs import get_metrics
from repro.obs.logging import get_logger
from repro.obs.tracer import get_tracer
from repro.world.scene import Scene

PathLike = Union[str, Path]

_log = get_logger("repro.runtime.checkpoint")


class CheckpointUnavailable(SnapshotError):
    """No generation of the checkpoint could be loaded."""


def config_fingerprint(scene: Scene, config: TagwatchConfig) -> str:
    """Fingerprint of everything a checkpoint must agree with to be safe.

    Covers the tag count, the antenna layout (positions and ranges), the
    channel plan, and the model/scheduling knobs whose learned state a
    checkpoint carries.  Live runs compare this against the hash recorded
    in a snapshot before resuming from it.
    """
    description = {
        "n_tags": len(scene.tags),
        "antennas": [
            {
                "position": [round(float(x), 9) for x in antenna.position],
                "range_m": round(float(antenna.range_m), 9),
            }
            for antenna in scene.antennas
        ],
        "channel_plan": {
            "frequencies_hz": list(scene.channel_plan.frequencies_hz),
            "hop_dwell_s": scene.channel_plan.hop_dwell_s,
        },
        "config": {
            "vote_rule": config.vote_rule,
            "key_by_channel": config.key_by_channel,
            "expire_after_s": config.expire_after_s,
            "selection_method": config.selection_method,
            "aispec_mode": config.aispec_mode,
            "max_mask_length": config.max_mask_length,
            "gmm": {
                "max_modes": config.gmm.max_modes,
                "learning_rate": config.gmm.learning_rate,
                "match_threshold": config.gmm.match_threshold,
            },
        },
    }
    canonical = json.dumps(description, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CheckpointStore:
    """A rotating set of snapshot generations at one filesystem path.

    ``retain`` is the total number of generations kept: the current file
    plus ``retain - 1`` rotated predecessors (``ckpt.json.1``, ...).
    """

    def __init__(self, path: PathLike, retain: int = 2) -> None:
        if retain < 1:
            raise ValueError("must retain at least one generation")
        self.path = Path(path)
        self.retain = retain
        self.writes = 0

    # ------------------------------------------------------------------
    def generation_path(self, generation: int) -> Path:
        """Path of one generation (0 = current, 1 = previous, ...)."""
        if generation == 0:
            return self.path
        return self.path.with_name(f"{self.path.name}.{generation}")

    def generations(self) -> List[Path]:
        """Existing generation files, newest first."""
        return [
            self.generation_path(g)
            for g in range(self.retain)
            if self.generation_path(g).exists()
        ]

    # ------------------------------------------------------------------
    def save(
        self,
        payload: dict,
        config_hash: str = "",
        sim_time_s: float = 0.0,
        cycle_index: int = 0,
    ) -> int:
        """Rotate generations and write a new snapshot; returns its size."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for generation in range(self.retain - 1, 0, -1):
            older, newer = (
                self.generation_path(generation),
                self.generation_path(generation - 1),
            )
            if newer.exists():
                newer.replace(older)
        n_bytes = write_snapshot(
            self.path,
            payload,
            config_hash=config_hash,
            sim_time_s=sim_time_s,
            cycle_index=cycle_index,
        )
        self.writes += 1
        registry = get_metrics()
        if registry is not None:
            registry.counter("runtime.checkpoints_written").inc()
            registry.histogram("runtime.checkpoint_bytes").observe(n_bytes)
        get_tracer().event(
            "checkpoint.write",
            t=sim_time_s,
            category="runtime",
            cycle=cycle_index,
            n_bytes=n_bytes,
        )
        return n_bytes

    def load_latest(
        self, expected_config_hash: Optional[str] = None
    ) -> Tuple[Dict[str, object], Path]:
        """The newest loadable generation as ``(envelope, path)``.

        Corrupt generations are skipped (with a counter and a warning) in
        favour of older ones.  A config-hash mismatch is *not* skipped —
        an older generation would mismatch too, and the caller must know
        to cold-start — so :class:`SnapshotMismatchError` propagates.
        Raises :class:`CheckpointUnavailable` when nothing loads.
        """
        errors: List[str] = []
        for candidate in self.generations():
            try:
                envelope = read_snapshot(candidate, expected_config_hash)
            except SnapshotMismatchError:
                raise
            except SnapshotError as exc:
                registry = get_metrics()
                if registry is not None:
                    registry.counter("runtime.checkpoint_corruptions").inc()
                _log.warning(f"skipping checkpoint generation: {exc}")
                errors.append(str(exc))
                continue
            # The generation's *name* only: an absolute path would drag
            # host-specific state into the trace (and into incident
            # bundles, which must be byte-identical across machines).
            get_tracer().event(
                "checkpoint.load",
                t=float(envelope.get("sim_time_s", 0.0)),
                category="runtime",
                cycle=int(envelope.get("cycle_index", 0)),
                generation=Path(candidate).name,
            )
            return envelope, candidate
        raise CheckpointUnavailable(
            f"no loadable checkpoint at {self.path}"
            + (f" ({'; '.join(errors)})" if errors else "")
        )
