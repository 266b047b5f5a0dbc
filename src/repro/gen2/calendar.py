"""Event-calendar round settlement for ``engine="calendar"``.

The calendar engine treats an inventory round as a *pre-planned calendar of
events* rather than a Python loop: the whole round — every frame draw, the
Q-algorithm walk, slot settlement, dedup and cumulative time assignment — is
handed to the compiled kernel in :mod:`repro.gen2._ckernel` as one call, and
Python only wraps the results: an :class:`InventoryLog` whose reads are
copies of the kernel's own columns of tag index, time and slot
(:class:`~repro.gen2.inventory.ReadColumns`).  Python-level work is
thereby O(rounds) with a tiny constant instead of O(slots), and rounds
that the kernel cannot express (custom strategies, frame-level tracing)
fall back to the sequential slot walk, which is always correct.

This module owns the per-engine kernel state: the loaded shared library and
the reusable scratch buffers the kernel writes into.  Buffers are allocated
once and grown geometrically, so steady-state rounds do zero allocation
beyond the result objects themselves.

RNG discipline: the kernel receives the engine generator's ``bitgen_t``
(numpy's public C interface) and draws from it directly — ``next_uint32``
per frame lane (``lane >> (32 - q)``, what ``Generator.integers(0, 2**q)``
returns) and ``next_double`` per singleton loss draw (what
``Generator.random()`` returns).  These are the calls the reference walk
makes through numpy, so each round is settled in one pass, nothing is
pre-fetched, and the generator ends the round where the reference walk
leaves it: kernel rounds and slot-walk rounds interleave on one stream, on
any numpy bit generator.  The caller holds the bit generator's lock
across the call, as numpy's own ``Generator`` methods do.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.gen2 import _ckernel

__all__ = ["CalendarKernel"]


class CalendarKernel:
    """Loaded C kernel plus reusable scratch for one :class:`InventoryEngine`.

    ``fn`` is ``None`` when the compiled kernel is unavailable (no C
    compiler, or disabled via ``REPRO_CALENDAR_CKERNEL=0``); callers must
    then use the pure-Python slot walk.
    """

    __slots__ = (
        "fn",
        "dpar",
        "ipar",
        "out_i",
        "out_d",
        "counts",
        "owner",
        "dpar_ptr",
        "ipar_ptr",
        "out_i_ptr",
        "out_d_ptr",
        "counts_ptr",
        "owner_ptr",
        "cap",
        "seen",
        "unseen",
        "ids",
        "read_tag",
        "read_slot",
        "read_time",
        "seen_ptr",
        "unseen_ptr",
        "ids_ptr",
        "read_tag_ptr",
        "read_slot_ptr",
        "read_time_ptr",
        "out_i_np",
        "ids_np",
        "read_tag_np",
        "read_slot_np",
        "read_time_np",
        "timing_src",
        "t_startup",
        "t_empty",
    )

    def __init__(self) -> None:
        lib = _ckernel.load_kernel()
        self.fn = lib.repro_run_round if lib is not None else None
        if self.fn is None:
            return
        self.dpar = (ctypes.c_double * 9)()
        self.ipar = (ctypes.c_int64 * 5)()
        self.out_i = (ctypes.c_int64 * 10)()
        self.out_d = (ctypes.c_double * 2)()
        self.counts = (ctypes.c_int32 * _ckernel.MAX_FRAME)()
        self.owner = (ctypes.c_int32 * _ckernel.MAX_FRAME)()
        self.dpar_ptr = ctypes.addressof(self.dpar)
        self.ipar_ptr = ctypes.addressof(self.ipar)
        self.out_i_ptr = ctypes.addressof(self.out_i)
        self.out_d_ptr = ctypes.addressof(self.out_d)
        self.counts_ptr = ctypes.addressof(self.counts)
        self.owner_ptr = ctypes.addressof(self.owner)
        # Zero-copy view: bulk ``tolist()`` beats per-element ctypes access.
        self.out_i_np = np.frombuffer(self.out_i, dtype=np.int64)
        self.timing_src = None
        self.cap = 0
        self._grow(256)

    def bind_timing(self, timing) -> None:
        """Cache the profile's derived durations (they are computed
        properties, too costly to re-derive every round)."""
        dpar = self.dpar
        dpar[2] = timing.empty_slot_duration
        dpar[3] = timing.success_slot_duration
        dpar[4] = timing.collision_slot_duration
        dpar[5] = timing.query_adjust_duration
        dpar[6] = timing.query_duration
        self.t_startup = timing.startup_cost
        self.t_empty = timing.empty_slot_duration
        self.timing_src = timing

    def _grow(self, n: int) -> None:
        cap = max(256, self.cap)
        while cap < n:
            cap <<= 1
        self.cap = cap
        self.seen = (ctypes.c_uint8 * cap)()
        self.unseen = (ctypes.c_int32 * cap)()
        self.ids = (ctypes.c_int64 * cap)()
        self.read_tag = (ctypes.c_int64 * cap)()
        self.read_slot = (ctypes.c_int64 * cap)()
        self.read_time = (ctypes.c_double * cap)()
        self.seen_ptr = ctypes.addressof(self.seen)
        self.unseen_ptr = ctypes.addressof(self.unseen)
        self.ids_ptr = ctypes.addressof(self.ids)
        self.read_tag_ptr = ctypes.addressof(self.read_tag)
        self.read_slot_ptr = ctypes.addressof(self.read_slot)
        self.read_time_ptr = ctypes.addressof(self.read_time)
        self.ids_np = np.frombuffer(self.ids, dtype=np.int64)
        self.read_tag_np = np.frombuffer(self.read_tag, dtype=np.int64)
        self.read_slot_np = np.frombuffer(self.read_slot, dtype=np.int64)
        self.read_time_np = np.frombuffer(self.read_time, dtype=np.float64)

    def prepare(self, participant_ids) -> None:
        """Size scratch for a round over ``participant_ids`` and load their
        tag indices (``seen`` is cleared by the kernel itself at entry)."""
        n = len(participant_ids)
        if n > self.cap:
            self._grow(n)
        self.ids_np[:n] = participant_ids
