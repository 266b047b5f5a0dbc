"""An LLRP client in the style of the ``sllurp`` library.

Tagwatch is specified as a pure LLRP client sitting between the reader and
the application; this class provides the sllurp-like surface (connect,
add/enable/start/delete ROSpec) over a :class:`~repro.reader.reader.SimReader`.
Against real hardware, the same call pattern maps 1:1 onto
``sllurp.llrp.LLRPClient``.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Tuple

from repro.gen2.inventory import InventoryLog
from repro.radio.measurement import TagObservation
from repro.reader.llrp import ROSpec
from repro.reader.reader import SimReader


class ReaderState(enum.Enum):
    """Client connection state machine (mirrors LLRP reader event states)."""

    DISCONNECTED = "disconnected"
    CONNECTED = "connected"


class LLRPError(RuntimeError):
    """Protocol-level failure (bad state transition, unknown ROSpec, ...)."""


class ReaderConnectionError(LLRPError):
    """The reader connection dropped mid-operation (transport failure).

    Raised by the fault-injecting reader when a scheduled disconnect fires,
    and re-raised by :class:`~repro.reader.resilience.ResilientLLRPClient`
    once its retry budget (or circuit breaker) is exhausted.  In-flight tag
    reports of the interrupted operation are lost, as over real LLRP/TCP.
    """


class LLRPClient:
    """Synchronous LLRP client bound to a simulated reader.

    >>> client = LLRPClient(reader)
    >>> client.connect()
    >>> client.add_rospec(rospec)
    >>> client.enable_rospec(rospec.rospec_id)
    >>> reports, log = client.start_rospec(rospec.rospec_id)
    """

    def __init__(self, reader: SimReader) -> None:
        self.reader = reader
        self.state = ReaderState.DISCONNECTED
        self._rospecs: Dict[int, ROSpec] = {}
        self._enabled: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Open the (simulated) LLRP connection."""
        if self.state == ReaderState.CONNECTED:
            raise LLRPError("already connected")
        self.state = ReaderState.CONNECTED

    def _require_connected(self) -> None:
        if self.state != ReaderState.CONNECTED:
            raise LLRPError("not connected to the reader")

    # ------------------------------------------------------------------
    def add_rospec(self, rospec: ROSpec) -> None:
        """Register a ROSpec with the reader (initially disabled)."""
        self._require_connected()
        if rospec.rospec_id in self._rospecs:
            raise LLRPError(f"ROSpec {rospec.rospec_id} already added")
        self._rospecs[rospec.rospec_id] = rospec
        self._enabled[rospec.rospec_id] = False

    def enable_rospec(self, rospec_id: int) -> None:
        """Mark a registered ROSpec runnable."""
        self._require_connected()
        if rospec_id not in self._rospecs:
            raise LLRPError(f"unknown ROSpec {rospec_id}")
        self._enabled[rospec_id] = True

    def delete_rospec(self, rospec_id: int) -> None:
        """Remove a ROSpec from the reader."""
        self._require_connected()
        if rospec_id not in self._rospecs:
            raise LLRPError(f"unknown ROSpec {rospec_id}")
        del self._rospecs[rospec_id]
        del self._enabled[rospec_id]

    def start_rospec(
        self, rospec_id: int
    ) -> Tuple[List[TagObservation], InventoryLog]:
        """Execute an enabled ROSpec to completion; returns its reports.

        The simulated reader is synchronous, so this blocks (in simulated
        time) until the ROSpec's stop trigger fires.
        """
        self._require_connected()
        if rospec_id not in self._rospecs:
            raise LLRPError(f"unknown ROSpec {rospec_id}")
        if not self._enabled[rospec_id]:
            raise LLRPError(f"ROSpec {rospec_id} is not enabled")
        return self._run_rospec(self._rospecs[rospec_id])

    def _run_rospec(
        self, rospec: ROSpec
    ) -> Tuple[List[TagObservation], InventoryLog]:
        """Hand one ROSpec to the reader; subclasses add retry semantics."""
        return self.reader.execute_rospec(rospec)

    def rospec_ids(self) -> List[int]:
        """Ids of all registered ROSpecs, sorted."""
        return sorted(self._rospecs)

    def clear_rospecs(self) -> int:
        """Tear down every registered ROSpec; returns how many were dropped.

        Session recovery uses this after a reader reboot: the reader has
        forgotten its ROSpec table, so the client-side registry must not
        pretend otherwise.
        """
        dropped = len(self._rospecs)
        self._rospecs.clear()
        self._enabled.clear()
        return dropped
