"""Structured logging that stays byte-compatible with ``print()``.

The experiments and the CLI historically wrote reports with bare
``print()``; golden-trace tests and shell pipelines depend on that exact
output.  This logger keeps the default ("plain") format *identical to
print* — the message string, nothing else — while adding what print cannot
do: levels, named loggers, a machine-readable JSON line format, and
stream redirection, all configured in one place.

The JSON format omits wall-clock timestamps unless explicitly enabled, so
two same-seed runs produce byte-identical logs — the same property the
metrics and trace exports guarantee.

>>> log = get_logger("repro.demo")
>>> log.info("warming up (15 s)...")        # exactly what print() wrote
warming up (15 s)...
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, IO, Optional

__all__ = [
    "ENV_LEVEL",
    "LEVELS",
    "StructuredLogger",
    "configure",
    "get_logger",
    "reset",
]

#: Symbolic level names to numeric severities (stdlib-compatible values).
LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: Environment variable consulted for the *default* level — handy for
#: muting a cron job to ``error`` without plumbing a flag through every
#: entry point.  An explicit :func:`configure` call always wins; unknown
#: values fall back to ``info`` rather than erroring, so a typo never
#: kills a run.
ENV_LEVEL = "REPRO_LOG_LEVEL"


def _env_level() -> int:
    """Default severity: ``$REPRO_LOG_LEVEL`` if valid, else ``info``."""
    name = os.environ.get(ENV_LEVEL, "").strip().lower()
    return LEVELS.get(name, LEVELS["info"])


@dataclass
class _Config:
    """Process-wide logging configuration (see :func:`configure`)."""

    format: str = "plain"  # "plain" | "json"
    level: int = field(default_factory=_env_level)
    #: Destination for < error records; ``None`` = current ``sys.stdout``.
    stream: Optional[IO[str]] = None
    #: Destination for error records; ``None`` = current ``sys.stderr``.
    err_stream: Optional[IO[str]] = None
    #: Include a wall-clock ``ts`` field in JSON records (off by default so
    #: logs of seeded runs stay byte-identical).
    timestamps: bool = False


_config = _Config()
_loggers: Dict[str, "StructuredLogger"] = {}


def configure(
    format: Optional[str] = None,
    level: Optional[str] = None,
    stream: Optional[IO[str]] = None,
    err_stream: Optional[IO[str]] = None,
    timestamps: Optional[bool] = None,
) -> None:
    """Update the global logging configuration (None = keep current)."""
    if format is not None:
        if format not in ("plain", "json"):
            raise ValueError(f"unknown log format {format!r}")
        _config.format = format
    if level is not None:
        if level not in LEVELS:
            raise ValueError(f"unknown log level {level!r}")
        _config.level = LEVELS[level]
    if stream is not None:
        _config.stream = stream
    if err_stream is not None:
        _config.err_stream = err_stream
    if timestamps is not None:
        _config.timestamps = timestamps


def reset() -> None:
    """Restore defaults (plain format, std streams, env-derived level).

    The level is re-read from ``$REPRO_LOG_LEVEL`` at reset time, so tests
    that monkeypatch the environment see the change take effect.
    """
    global _config
    _config = _Config()


class StructuredLogger:
    """A named logger writing plain or JSON lines.

    In plain format the message is emitted verbatim (fields, if any, are
    appended as sorted ``key=value`` pairs); in JSON format every record is
    one sorted-keys JSON object per line.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    # ------------------------------------------------------------------
    def _emit(self, levelno: int, levelname: str, msg: object, fields: dict) -> None:
        if levelno < _config.level:
            return
        if levelno >= LEVELS["error"]:
            out = _config.err_stream or sys.stderr
        else:
            out = _config.stream or sys.stdout
        if _config.format == "json":
            payload: Dict[str, object] = {
                "level": levelname,
                "logger": self.name,
                "msg": str(msg),
            }
            if fields:
                payload["fields"] = fields
            if _config.timestamps:
                payload["ts"] = round(time.time(), 6)
            print(json.dumps(payload, sort_keys=True), file=out)
        else:
            text = str(msg)
            if fields:
                pairs = " ".join(f"{k}={fields[k]}" for k in sorted(fields))
                text = f"{text} [{pairs}]" if text else f"[{pairs}]"
            print(text, file=out)

    # ------------------------------------------------------------------

    def info(self, msg: object = "", **fields: object) -> None:
        """Normal report output (what ``print()`` used to carry)."""
        self._emit(LEVELS["info"], "info", msg, fields)

    def warning(self, msg: object = "", **fields: object) -> None:
        """Something degraded but the run continues."""
        self._emit(LEVELS["warning"], "warning", msg, fields)

    def error(self, msg: object = "", **fields: object) -> None:
        """Failure output; routed to stderr in plain format."""
        self._emit(LEVELS["error"], "error", msg, fields)


def get_logger(name: str) -> StructuredLogger:
    """The (cached) logger with this dotted name."""
    logger = _loggers.get(name)
    if logger is None:
        logger = _loggers[name] = StructuredLogger(name)
    return logger
