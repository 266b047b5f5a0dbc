"""Lazily compiled C micro-kernel for the calendar inventory engine.

The event-calendar engine (``engine="calendar"``) settles whole rounds —
frame draws, the Q-algorithm walk, dedup, cumulative time assignment — in
one C call per round instead of Python-per-slot work.  The C source below
transliterates the sequential slot walk of
:meth:`InventoryEngine._run_round_reference` with the Q-algorithm inlined,
so for the strategies it supports (Q-adaptive and FixedQ, with or without
link loss) the slot outcomes, read times and RNG consumption are
bit-for-bit identical to the reference engine:

- the kernel draws straight from the engine generator's ``bitgen_t``
  (numpy's public C interface, ``numpy/random/bitgen.h``), making the same
  calls the reference walk makes through numpy: a frame lane is
  ``next_uint32`` shifted to ``lane >> (32 - q)`` — what
  ``Generator.integers(0, 2**q)`` returns, since Lemire's bounded draw
  never rejects for a power-of-two range — and a frame of length one
  draws nothing; each singleton's link-loss draw is ``next_double``,
  exactly ``Generator.random()``.  Any numpy bit generator works, and the
  generator ends the round where the reference walk leaves it;
- the Q-walk uses the same double arithmetic (``qfp ± c`` with [0, 15]
  clamps) and C ``rint`` — round-half-to-even, exactly Python's
  ``round(float)`` — for the QueryAdjust decision;
- simulated time accrues through the same sequence of double additions, so
  every read timestamp matches the sequential walk bit for bit.

The kernel is OPTIONAL.  It is compiled on first use with the system C
compiler (against numpy's headers) into a cache directory and loaded via
:mod:`ctypes`; when no compiler is available (or
``REPRO_CALENDAR_CKERNEL=0``), the calendar engine silently falls back to
the pure-Python slot walk, which is always correct — only slower.  Nothing
is downloaded and no third-party package is required.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Optional

import numpy as np

__all__ = ["load_kernel", "kernel_source_hash", "MAX_FRAME"]

#: Largest Gen2 frame (Q = 15).  Scratch buffers are sized to this.
MAX_FRAME = 1 << 15

_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>
#include "numpy/random/bitgen.h"

/* One inventory round, settled slot by slot.
 *
 * Mirrors the sequential reference walk with the QAdaptive/FixedQ
 * controller inlined: same draws from the same bit generator, same double
 * arithmetic, same truncation checks.
 *
 * dpar: [t_start, deadline, t_empty, t_single, t_collision, t_adjust,
 *        t_query, c, p_loss]
 * ipar: [n, strat (0 = FixedQ, 1 = QAdaptive), q0, with_replacement,
 *        max_slots]
 * out_i: [n_empty, n_single, n_collision, n_duplicate, n_adjusts,
 *         n_frames, truncated, n_reads, n_slots, n_lost]
 * out_d: [t_end]
 *
 * bg is the engine generator's bitgen_t; the caller holds the bit
 * generator's lock.  A frame lane is next_uint32 >> (32 - q), which is
 * what Generator.integers(0, 2**q) returns; a singleton's loss draw is
 * next_double, which is what Generator.random() returns.
 */
void repro_run_round(
    const double *dpar,
    const int64_t *ipar,
    bitgen_t *bg,
    uint8_t *seen,
    int32_t *counts,
    int32_t *owner,
    int32_t *unseen,
    int64_t *out_i,
    double *out_d,
    int64_t *read_pos,
    int64_t *read_slot,
    double *read_time)
{
    const double deadline = dpar[1];
    const double t_empty = dpar[2];
    const double t_single = dpar[3];
    const double t_collision = dpar[4];
    const double t_adjust = dpar[5];
    const double t_query = dpar[6];
    const double c = dpar[7];
    const double p_loss = dpar[8];
    const int64_t n = ipar[0];
    const int strat = (int)ipar[1];
    const int with_replacement = (int)ipar[3];
    const int64_t max_slots = ipar[4];
    const int has_loss = p_loss > 0.0;

    double t = dpar[0];
    int q = (int)ipar[2];
    double qfp = (double)q;
    int64_t frame_length = (int64_t)1 << q;

    int64_t n_empty = 0, n_single = 0, n_collision = 0;
    int64_t n_duplicate = 0, n_adjusts = 0, n_frames = 0;
    int64_t n_seen = 0, n_reads = 0, slot_counter = 0;
    int64_t n_lost = 0;
    int truncated = 0;

    for (int64_t i = 0; i < n; i++) seen[i] = 0;

    while (n_seen < n) {
        n_frames++;
        int64_t size;
        if (with_replacement) {
            size = n;
        } else {
            size = 0;
            for (int64_t i = 0; i < n; i++)
                if (!seen[i]) unseen[size++] = (int32_t)i;
        }

        if (frame_length > 1) {
            const int shift = 32 - q;
            for (int64_t i = 0; i < frame_length; i++) counts[i] = 0;
            for (int64_t i = 0; i < size; i++) {
                const int32_t d = (int32_t)(bg->next_uint32(bg->state) >> shift);
                counts[d]++;
                owner[d] = (int32_t)i;
            }
        } else {
            /* integers(0, 1, ...) consumes no stream words. */
            counts[0] = (int32_t)size;
            owner[0] = 0;
        }

        int exit_cut = 0;
        for (int64_t slot = 0; slot < frame_length; slot++) {
            if (t >= deadline || slot_counter >= max_slots) {
                truncated = 1;
                break;
            }
            const int32_t occupancy = counts[slot];
            if (occupancy == 1) {
                t += t_single;
                n_single++;
                if (has_loss && bg->next_double(bg->state) < p_loss) {
                    n_lost++;
                    slot_counter++;
                    continue;
                }
                const int64_t j = owner[slot];
                const int64_t p_i = with_replacement ? j : (int64_t)unseen[j];
                if (seen[p_i]) {
                    n_duplicate++;
                    slot_counter++;
                    continue;
                }
                seen[p_i] = 1;
                n_seen++;
                read_pos[n_reads] = p_i;
                read_slot[n_reads] = slot_counter;
                read_time[n_reads] = t;
                n_reads++;
                slot_counter++;
                if (n_seen >= n) break;
                continue;
            }
            if (occupancy == 0) {
                t += t_empty;
                n_empty++;
                if (strat == 1) {
                    qfp -= c;
                    if (qfp < 0.0) qfp = 0.0;
                }
            } else {
                t += t_collision;
                n_collision++;
                if (strat == 1) {
                    qfp += c;
                    if (qfp > 15.0) qfp = 15.0;
                }
            }
            slot_counter++;
            if (strat == 1) {
                const int new_q = (int)rint(qfp);
                if (new_q != q) {
                    q = new_q;
                    exit_cut = 1;
                    break;
                }
            }
        }

        if (exit_cut) {
            t += t_adjust;
            n_adjusts++;
            frame_length = (int64_t)1 << q;
        }
        if (truncated) break;
        if (n_seen >= n) break;
        if (!exit_cut) {
            t += t_query;
            if (strat == 1) frame_length = (int64_t)1 << q;
        }
    }

    out_i[0] = n_empty;
    out_i[1] = n_single;
    out_i[2] = n_collision;
    out_i[3] = n_duplicate;
    out_i[4] = n_adjusts;
    out_i[5] = n_frames;
    out_i[6] = truncated;
    out_i[7] = n_reads;
    out_i[8] = slot_counter;
    out_i[9] = n_lost;
    out_d[0] = t;
}
"""


def kernel_source_hash() -> str:
    """Hash of the embedded C source and the numpy version (keys the build
    cache: the kernel is compiled against numpy's ``bitgen_t`` layout, so a
    numpy upgrade must rebuild it)."""
    key = f"{_C_SOURCE}\0numpy {np.__version__}"
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


def _build_dir() -> str:
    configured = os.environ.get("REPRO_KERNEL_BUILD_DIR")
    if configured:
        return configured
    # Keep build artefacts next to the package's repository checkout when
    # writable, else fall back to a per-user temp dir.
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    candidate = os.path.join(repo, "build", "ckernel")
    try:
        os.makedirs(candidate, exist_ok=True)
        return candidate
    except OSError:
        return os.path.join(tempfile.gettempdir(), "repro-ckernel")


def _compile(so_path: str) -> bool:
    """Compile the embedded source to ``so_path``; False on any failure."""
    build = os.path.dirname(so_path)
    try:
        os.makedirs(build, exist_ok=True)
    except OSError:
        return False
    c_path = so_path[:-3] + ".c"
    # Per-process source and output: a concurrent build must never
    # compile a source file another process is still writing.
    tmp_c = c_path[:-2] + f".tmp{os.getpid()}.c"
    tmp_so = so_path + f".tmp{os.getpid()}"
    try:
        with open(tmp_c, "w", encoding="utf-8") as handle:
            handle.write(_C_SOURCE)
        for compiler in ("cc", "gcc", "clang"):
            try:
                result = subprocess.run(
                    [
                        compiler,
                        "-O2",
                        "-shared",
                        "-fPIC",
                        "-I",
                        np.get_include(),
                        "-o",
                        tmp_so,
                        tmp_c,
                        "-lm",
                    ],
                    capture_output=True,
                    timeout=120,
                )
            except (OSError, subprocess.TimeoutExpired):
                continue
            if result.returncode == 0:
                os.replace(tmp_c, c_path)
                os.replace(tmp_so, so_path)  # atomic: concurrent builds race safely
                return True
        return False
    except OSError:
        return False
    finally:
        for leftover in (tmp_c, tmp_so):
            if os.path.exists(leftover):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass


_LOADED: Optional[ctypes.CDLL] = None
_LOAD_ATTEMPTED = False


def load_kernel() -> Optional[ctypes.CDLL]:
    """Compile (once) and load the C kernel; ``None`` when unavailable.

    Gated by ``REPRO_CALENDAR_CKERNEL`` (set to ``0`` to force the
    pure-Python fallback, e.g. to benchmark it or on systems without a C
    compiler).  The build is cached per source hash, so subsequent runs
    only pay a ``dlopen``.
    """
    global _LOADED, _LOAD_ATTEMPTED
    if _LOAD_ATTEMPTED:
        return _LOADED
    _LOAD_ATTEMPTED = True
    if os.environ.get("REPRO_CALENDAR_CKERNEL", "1") in ("0", "false", "no"):
        return None
    so_path = os.path.join(
        _build_dir(), f"repro_round_{kernel_source_hash()}.so"
    )
    try:
        if not os.path.exists(so_path) and not _compile(so_path):
            return None
        lib = ctypes.CDLL(so_path)
    except OSError:
        return None
    fn = lib.repro_run_round
    fn.restype = None
    fn.argtypes = [
        ctypes.c_void_p,  # dpar
        ctypes.c_void_p,  # ipar
        ctypes.c_void_p,  # bg (bitgen_t *)
        ctypes.c_void_p,  # seen
        ctypes.c_void_p,  # counts
        ctypes.c_void_p,  # owner
        ctypes.c_void_p,  # unseen
        ctypes.c_void_p,  # out_i
        ctypes.c_void_p,  # out_d
        ctypes.c_void_p,  # read_pos
        ctypes.c_void_p,  # read_slot
        ctypes.c_void_p,  # read_time
    ]
    _LOADED = lib
    return _LOADED
