"""A fault-tolerant LLRP client: retries, backoff, and circuit breaking.

``sllurp`` against real hardware sees exactly the failures the fault model
injects — dropped TCP connections, stalled readers, lost RO_ACCESS_REPORT
batches.  :class:`ResilientLLRPClient` wraps ROSpec execution with:

- **bounded retries** with **exponential backoff plus jitter**, spent in
  *simulated* time (``reader.advance_clock``) so recovery behaviour is part
  of the reproducible timeline;
- **automatic reconnection** — a dropped connection is re-established
  before the next attempt (LLRP readers keep ROSpec state across client
  reconnects, so registered ROSpecs survive);
- a **circuit breaker** — after ``breaker_threshold`` consecutive failed
  operations the client stops hammering the reader for
  ``breaker_cooldown_s`` of simulated time and fails fast instead, which is
  what lets the middleware above degrade gracefully rather than hang;
- **session recovery** — the client tracks the keepalive gap (simulated
  time since the last successful reader operation) and the reader's
  *session epoch*; a reader that crashed and rebooted bumps its epoch, and
  the client responds by tearing down and re-issuing its registered
  ROSpecs (Select state included) instead of trusting a session the reader
  has forgotten.  :meth:`ResilientLLRPClient.recover_session` performs the
  same teardown/re-issue on demand — the supervised runtime's watchdog
  calls it when the keepalive gap exceeds its bound;
- **structured metrics** (:mod:`repro.util.metrics`) for every retry,
  reconnect, backoff interval, session recovery, and abandoned operation.

All jitter is drawn from a generator derived from an explicit seed, so a
faulted run is bit-reproducible end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.gen2.inventory import InventoryLog
from repro.obs.tracer import get_tracer
from repro.radio.measurement import TagObservation
from repro.reader.client import (
    LLRPClient,
    ReaderConnectionError,
    ReaderState,
)
from repro.reader.llrp import ROSpec
from repro.reader.reader import SimReader
from repro.util.metrics import MetricsRegistry
from repro.util.rng import derive_rng


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/circuit-breaker knobs (see ``docs/faults.md``)."""

    #: Total attempts per operation (first try included).
    max_attempts: int = 5
    #: Backoff before the first retry.
    base_backoff_s: float = 0.1
    #: Multiplier applied per successive retry.
    backoff_multiplier: float = 2.0
    #: Ceiling on any single backoff interval.
    max_backoff_s: float = 5.0
    #: Jitter fraction: each backoff is scaled by uniform([1, 1 + jitter]).
    jitter: float = 0.1
    #: Consecutive failed operations before the breaker opens.
    breaker_threshold: int = 3
    #: How long an open breaker rejects operations (simulated seconds).
    breaker_cooldown_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.base_backoff_s < 0 or self.max_backoff_s < self.base_backoff_s:
            raise ValueError("backoff bounds must satisfy 0 <= base <= max")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.breaker_threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        if self.breaker_cooldown_s < 0:
            raise ValueError("breaker cooldown must be non-negative")

    def backoff_s(self, retry_index: int, rng: np.random.Generator) -> float:
        """Backoff before the ``retry_index``-th retry (1-based), jittered."""
        if retry_index < 1:
            raise ValueError("retry index is 1-based")
        raw = self.base_backoff_s * self.backoff_multiplier ** (retry_index - 1)
        raw = min(raw, self.max_backoff_s)
        if self.jitter > 0:
            raw *= 1.0 + float(rng.random()) * self.jitter
        return raw


class CircuitOpenError(ReaderConnectionError):
    """Fast-fail: the circuit breaker is open, no attempt was made."""


class ResilientLLRPClient(LLRPClient):
    """LLRP client that survives transport faults instead of propagating them.

    Drop-in replacement for :class:`LLRPClient`; with a healthy reader it
    draws no random numbers and never touches the clock, so fault-free runs
    are bit-identical to the plain client.
    """

    def __init__(
        self,
        reader: SimReader,
        policy: Optional[RetryPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(reader)
        self.policy = policy or RetryPolicy()
        if metrics is None:
            # Share the injector's registry when the reader carries one, so
            # one export shows faults and recovery side by side.
            metrics = getattr(reader, "metrics", None) or MetricsRegistry()
        self.metrics = metrics
        self._rng = derive_rng(int(seed), "client.backoff")
        self._consecutive_failures = 0
        self._breaker_open_until: Optional[float] = None
        self._last_ok_s = reader.time_s
        self._session_epoch = getattr(reader, "session_epoch", 0)

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _require_connected(self) -> None:
        # LLRP readers keep ROSpec state across client reconnects; rather
        # than poison every later call after a mid-run drop, transparently
        # re-establish the session.
        if self.state != ReaderState.CONNECTED:
            self.state = ReaderState.CONNECTED
            self.metrics.counter("client.reconnects").inc()
            get_tracer().event(
                "client.reconnect", t=self.reader.time_s, category="resilience"
            )
        self._check_session_epoch()

    def _check_session_epoch(self) -> None:
        """Re-issue session state if the reader rebooted since we last spoke.

        A crashed-and-rebooted reader answers again but has forgotten its
        ROSpec table and Select flags; it signals that by bumping its
        session epoch.  Pretending the old session survived would silently
        run empty operations, so the registered ROSpecs are re-issued.
        """
        epoch = getattr(self.reader, "session_epoch", 0)
        if epoch == self._session_epoch:
            return
        self._session_epoch = epoch
        reissued = self._reissue_rospecs()
        self.metrics.counter("client.sessions_reestablished").inc()
        get_tracer().event(
            "client.session_restore",
            t=self.reader.time_s,
            category="resilience",
            epoch=epoch,
            n_rospecs=reissued,
        )

    def _reissue_rospecs(self) -> int:
        """Replay add/enable for every registered ROSpec; returns count."""
        registered = [
            (self._rospecs[rid], self._enabled[rid]) for rid in self.rospec_ids()
        ]
        self.clear_rospecs()
        for rospec, enabled in registered:
            self.add_rospec(rospec)
            if enabled:
                self.enable_rospec(rospec.rospec_id)
        return len(registered)

    @property
    def keepalive_gap_s(self) -> float:
        """Simulated time since the reader last completed an operation."""
        return self.reader.time_s - self._last_ok_s

    def recover_session(self) -> int:
        """Tear down and re-establish the LLRP session; returns re-issues.

        The escalation path for a session that looks wedged (keepalive gap
        past its bound, repeated abandoned operations): reconnect, sync the
        session epoch, re-issue every registered ROSpec with its Select
        state, and reset the circuit breaker so the next operation is
        actually attempted rather than fast-failed.
        """
        self.state = ReaderState.CONNECTED
        self._session_epoch = getattr(self.reader, "session_epoch", 0)
        reissued = self._reissue_rospecs()
        self._consecutive_failures = 0
        self._breaker_open_until = None
        self._last_ok_s = self.reader.time_s
        self.metrics.counter("client.session_recoveries").inc()
        get_tracer().event(
            "client.session_recover",
            t=self.reader.time_s,
            category="resilience",
            n_rospecs=reissued,
        )
        return reissued

    @property
    def breaker_open(self) -> bool:
        return (
            self._breaker_open_until is not None
            and self.reader.time_s < self._breaker_open_until
        )

    def _record_failure(self) -> None:
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.policy.breaker_threshold:
            self._breaker_open_until = (
                self.reader.time_s + self.policy.breaker_cooldown_s
            )
            self.metrics.counter("client.circuit_opened").inc()
            get_tracer().event(
                "client.circuit_open",
                t=self.reader.time_s,
                category="resilience",
                open_until_s=self._breaker_open_until,
                consecutive_failures=self._consecutive_failures,
            )

    def _record_success(self) -> None:
        self._consecutive_failures = 0
        self._breaker_open_until = None
        self._last_ok_s = self.reader.time_s

    # ------------------------------------------------------------------
    # Resilient execution
    # ------------------------------------------------------------------
    def _run_rospec(
        self, rospec: ROSpec
    ) -> Tuple[List[TagObservation], InventoryLog]:
        tracer = get_tracer()
        if self.breaker_open:
            self.metrics.counter("client.breaker_rejections").inc()
            tracer.event(
                "client.breaker_rejection",
                t=self.reader.time_s,
                category="resilience",
                rospec_id=rospec.rospec_id,
            )
            raise CircuitOpenError(
                f"circuit breaker open until t={self._breaker_open_until:.3f}s"
            )
        policy = self.policy
        for attempt in range(1, policy.max_attempts + 1):
            try:
                reports, log = self.reader.execute_rospec(rospec)
            except ReaderConnectionError:
                self.state = ReaderState.DISCONNECTED
                self.metrics.counter("client.connection_errors").inc()
                if attempt == policy.max_attempts:
                    self._record_failure()
                    self.metrics.counter("client.operations_abandoned").inc()
                    tracer.event(
                        "client.abandoned",
                        t=self.reader.time_s,
                        category="resilience",
                        rospec_id=rospec.rospec_id,
                        attempts=attempt,
                    )
                    raise
                backoff = policy.backoff_s(attempt, self._rng)
                self.metrics.counter("client.retries").inc()
                self.metrics.histogram("client.backoff_s").observe(backoff)
                tracer.event(
                    "client.retry",
                    t=self.reader.time_s,
                    category="resilience",
                    rospec_id=rospec.rospec_id,
                    attempt=attempt,
                    backoff_s=backoff,
                )
                self.reader.advance_clock(backoff)
                self._require_connected()  # reconnect before the retry
            else:
                self._record_success()
                self.metrics.counter("client.rospecs_completed").inc()
                return reports, log
        raise AssertionError("unreachable: retry loop always returns or raises")
