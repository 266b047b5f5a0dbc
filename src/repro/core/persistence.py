"""Persisting learned state across deployment restarts, crash-safely.

The motion assessor needs ~55 readings per (tag, antenna, channel) shard
before a tag's immobility is trusted — minutes of air time on a large
population.  A deployment that restarts (upgrade, power cycle, crash)
should not pay that again.  This module has two layers:

- **assessor state** (:func:`assessor_state` / :func:`restore_assessor`):
  the mixture stacks, match-run counters and, optionally, the pending
  per-cycle votes, as a versioned JSON-serialisable document;
- **snapshot envelopes** (:func:`write_snapshot` / :func:`read_snapshot`):
  a crash-safe file format for any JSON payload — the payload is wrapped
  with a format version, a SHA-256 checksum, and the deployment's config
  hash, then written atomically (temp file + ``fsync`` + ``os.replace``)
  so a crash mid-write can never leave a torn checkpoint behind.

Schema history: version 1 stored modes without ``current_run`` and never
carried votes; version 2 adds both.  :func:`restore_assessor` accepts
either, so old checkpoints keep loading.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.gmm import GaussianMixtureStack, GmmParams
from repro.core.motion import MotionAssessor

PathLike = Union[str, Path]

#: Assessor-state format marker (see the schema history above).
STATE_VERSION = 2

#: Snapshot-envelope format marker.
SNAPSHOT_VERSION = 1


class SnapshotError(ValueError):
    """A snapshot file could not be used (corrupt, wrong version, ...)."""


class SnapshotCorruptionError(SnapshotError):
    """The snapshot failed its checksum or did not parse at all."""


class SnapshotMismatchError(SnapshotError):
    """The snapshot was written by an incompatible deployment config."""


def _params_to_dict(params: GmmParams) -> dict:
    return {
        "max_modes": params.max_modes,
        "learning_rate": params.learning_rate,
        "match_threshold": params.match_threshold,
        "initial_std": params.initial_std,
        "initial_weight": params.initial_weight,
        "min_std": params.min_std,
        "reliable_weight": params.reliable_weight,
        "reliable_std": params.reliable_std,
        "reliable_run": params.reliable_run,
        "max_update_step": params.max_update_step,
    }


def assessor_state(
    assessor: MotionAssessor, include_votes: bool = False
) -> dict:
    """The assessor's learning state as a JSON-serialisable dict.

    With ``include_votes=False`` (the default) transient per-cycle votes
    are dropped — a restart then begins with a fresh Phase I.  The
    supervised runtime passes ``include_votes=True`` so a warm restart
    resumes mid-stream and converges on the uninterrupted run's verdicts.
    """
    shards = []
    for (epc_value, antenna, channel), stack in assessor.shards():
        shard = stack.state_dict()
        shard.update(
            epc=f"{epc_value:x}", antenna=antenna, channel=channel
        )
        shards.append(shard)
    state = {
        "version": STATE_VERSION,
        "params": _params_to_dict(assessor.params),
        "vote_rule": assessor.vote_rule,
        "key_by_channel": assessor.key_by_channel,
        "expire_after_s": assessor.expire_after_s,
        "last_seen": {
            f"{epc:x}": t for epc, t in assessor._last_seen.items()
        },
        "shards": shards,
    }
    if include_votes:
        state["votes"] = {
            f"{epc:x}": list(map(bool, flags))
            for epc, flags in assessor._cycle_flags.items()
        }
    return state


def restore_assessor(state: dict) -> MotionAssessor:
    """Rebuild a motion assessor from :func:`assessor_state` output."""
    if state.get("version") not in (1, STATE_VERSION):
        raise ValueError(
            f"unsupported assessor-state version {state.get('version')!r}"
        )
    params = GmmParams(**state["params"])
    assessor = MotionAssessor(
        params=params,
        vote_rule=state["vote_rule"],
        expire_after_s=float(state["expire_after_s"]),
        key_by_channel=bool(state["key_by_channel"]),
    )
    for shard in state["shards"]:
        stack = GaussianMixtureStack.from_state(shard, params, circular=True)
        key = (int(shard["epc"], 16), int(shard["antenna"]), int(shard["channel"]))
        assessor.load_shard(key, stack)
    assessor._last_seen = {
        int(epc, 16): float(t) for epc, t in state["last_seen"].items()
    }
    for epc, flags in state.get("votes", {}).items():
        assessor._cycle_flags[int(epc, 16)] = [bool(f) for f in flags]
    return assessor


# ----------------------------------------------------------------------
# Crash-safe snapshot envelopes
# ----------------------------------------------------------------------
def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_checksum(payload: dict) -> str:
    """SHA-256 over the canonical JSON encoding of ``payload``."""
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def write_snapshot(
    path: PathLike,
    payload: dict,
    config_hash: str = "",
    sim_time_s: float = 0.0,
    cycle_index: int = 0,
) -> int:
    """Atomically write a checksummed snapshot envelope; returns its size.

    The envelope lands via temp-file + ``fsync`` + ``os.replace`` in the
    destination directory, so readers only ever see either the previous
    complete snapshot or the new complete snapshot — never a torn write.
    """
    path = Path(path)
    envelope = {
        "snapshot_version": SNAPSHOT_VERSION,
        "checksum": payload_checksum(payload),
        "config_hash": config_hash,
        "sim_time_s": float(sim_time_s),
        "cycle_index": int(cycle_index),
        "payload": payload,
    }
    document = json.dumps(envelope, sort_keys=True)
    atomic_write_text(path, document)
    return len(document)


def atomic_write_text(path: PathLike, text: str) -> int:
    """Write ``text`` atomically (temp + ``fsync`` + ``os.replace``).

    The write path snapshots and incident bundles share: readers only ever
    see either the previous complete file or the new complete file, never
    a torn write.  Returns the byte length written.
    """
    path = Path(path)
    data = text.encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return len(data)


def read_snapshot(
    path: PathLike, expected_config_hash: Optional[str] = None
) -> Dict[str, object]:
    """Read and verify a snapshot envelope written by :func:`write_snapshot`.

    Raises :class:`SnapshotCorruptionError` when the file does not parse or
    fails its checksum, :class:`SnapshotError` on an unknown envelope
    version, and :class:`SnapshotMismatchError` when
    ``expected_config_hash`` is given and differs from the recorded one —
    resuming state learned under a different tag population, antenna
    layout or channel plan would poison the live run.
    """
    path = Path(path)
    try:
        envelope = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SnapshotCorruptionError(
            f"snapshot {path} is unreadable: {exc}"
        ) from exc
    if not isinstance(envelope, dict) or "payload" not in envelope:
        raise SnapshotCorruptionError(f"snapshot {path} has no payload")
    if envelope.get("snapshot_version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot {path} has unsupported version "
            f"{envelope.get('snapshot_version')!r}"
        )
    recorded = envelope.get("checksum", "")
    actual = payload_checksum(envelope["payload"])
    if recorded != actual:
        raise SnapshotCorruptionError(
            f"snapshot {path} failed its checksum "
            f"(recorded {recorded[:12]}..., actual {actual[:12]}...)"
        )
    if (
        expected_config_hash is not None
        and envelope.get("config_hash") != expected_config_hash
    ):
        raise SnapshotMismatchError(
            f"snapshot {path} was written under config hash "
            f"{envelope.get('config_hash')!r}, live run is "
            f"{expected_config_hash!r}"
        )
    return envelope
