"""Named loggers whose output is byte-identical to ``print()``.

The experiments and the CLI historically wrote reports with bare
``print()``; golden-trace tests and shell pipelines depend on that exact
output.  A logger writes the message string and nothing else, so it
changes no byte of that output.  What it adds over print is a level:
``$REPRO_LOG_LEVEL`` mutes a run's reports (say, a cron job at ``error``)
without a flag plumbed through every entry point.  Error records go to
stderr, the rest to stdout.

>>> log = get_logger("repro.demo")
>>> log.info("warming up (15 s)...")        # exactly what print() wrote
warming up (15 s)...
"""

from __future__ import annotations

import os
import sys
from typing import Dict

__all__ = [
    "ENV_LEVEL",
    "LEVELS",
    "StructuredLogger",
    "get_logger",
]

#: Symbolic level names to numeric severities (stdlib-compatible values).
LEVELS: Dict[str, int] = {"info": 20, "warning": 30, "error": 40}

#: Environment variable naming the lowest level that is written.  It is
#: read when a record is emitted; an unknown value falls back to ``info``
#: rather than erroring, so a typo never kills a run.
ENV_LEVEL = "REPRO_LOG_LEVEL"

_loggers: Dict[str, "StructuredLogger"] = {}


def _threshold() -> int:
    """Lowest severity written: ``$REPRO_LOG_LEVEL`` if valid, else ``info``."""
    name = os.environ.get(ENV_LEVEL, "").strip().lower()
    return LEVELS.get(name, LEVELS["info"])


class StructuredLogger:
    """A named logger that writes each message verbatim, one per line."""

    def __init__(self, name: str) -> None:
        self.name = name

    def _emit(self, levelno: int, msg: object) -> None:
        if levelno < _threshold():
            return
        out = sys.stderr if levelno >= LEVELS["error"] else sys.stdout
        print(msg, file=out)

    def info(self, msg: object = "") -> None:
        """Normal report output (what ``print()`` used to carry)."""
        self._emit(LEVELS["info"], msg)

    def warning(self, msg: object = "") -> None:
        """Something degraded but the run continues."""
        self._emit(LEVELS["warning"], msg)

    def error(self, msg: object = "") -> None:
        """Failure output; written to stderr."""
        self._emit(LEVELS["error"], msg)


def get_logger(name: str) -> StructuredLogger:
    """The (cached) logger with this dotted name."""
    logger = _loggers.get(name)
    if logger is None:
        logger = _loggers[name] = StructuredLogger(name)
    return logger
