"""Lazily compiled C micro-kernel for the calendar inventory engine.

The event-calendar engine (``engine="calendar"``) settles whole rounds —
frame draws, the Q-algorithm walk, dedup, cumulative time assignment — in
one C call per round instead of Python-per-slot work.  The C source below
transliterates the sequential slot walk of
:meth:`InventoryEngine._run_round_reference` with the Q-algorithm inlined,
so for the strategies it supports (Q-adaptive and FixedQ, with or without
link loss) the slot outcomes, read times and RNG consumption are
bit-for-bit identical to the reference engine:

- frame draws replay pre-fetched PCG64 32-bit lanes (``lane >> (32 - q)``,
  what numpy's bounded draw keeps for a power-of-two frame; a frame of
  length one consumes nothing);
- the Q-walk uses the same double arithmetic (``qfp ± c`` with [0, 15]
  clamps) and C ``rint`` — round-half-to-even, exactly Python's
  ``round(float)`` — for the QueryAdjust decision;
- simulated time accrues through the same sequence of double additions, so
  every read timestamp matches the sequential walk bit for bit;
- with link loss on, the buffer holds raw 64-bit PCG64 *words* instead of
  pre-split lanes: each singleton's loss draw consumes one whole word
  (``(word >> 11) * 2^-53``, numpy's exact uint64→double conversion) while
  frame draws split words into lanes low-half first, carrying an unused
  high lane across frames in a spare register — the precise interleaving
  ``Generator.integers`` and ``Generator.random`` produce.

The kernel is OPTIONAL.  It is compiled on first use with the system C
compiler into a cache directory and loaded via :mod:`ctypes`; when no
compiler is available (or ``REPRO_CALENDAR_CKERNEL=0``), the calendar
engine silently falls back to the pure-Python slot walk, which is always
correct — only slower.  Nothing is downloaded and no third-party package
is required.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Optional

__all__ = ["load_kernel", "kernel_source_hash", "MAX_FRAME"]

#: Largest Gen2 frame (Q = 15).  Scratch buffers are sized to this.
MAX_FRAME = 1 << 15

#: Return codes of ``repro_run_round``.
OK = 0
NEED_LANES = 1

_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

/* One inventory round, settled slot by slot.
 *
 * Mirrors the sequential reference walk with the QAdaptive/FixedQ
 * controller inlined: same lane consumption, same double arithmetic, same
 * truncation checks.
 *
 * dpar: [t_start, deadline, t_empty, t_single, t_collision, t_adjust,
 *        t_query, c, p_loss]
 * ipar: [n, strat (0 = FixedQ, 1 = QAdaptive), q0, with_replacement,
 *        max_slots, spare_lane_in (-1 = none; word mode only)]
 * out_i: [pos_out | units_needed, n_empty, n_single, n_collision,
 *         n_duplicate, n_adjusts, n_frames, truncated, n_reads, n_slots,
 *         spare_lane_out (-1 = none), n_lost]
 * out_d: [t_end]
 *
 * Buffer interpretation depends on p_loss.  When p_loss == 0 the buffer
 * holds pre-split 32-bit lanes and positions count lanes (the historical
 * contract).  When p_loss > 0 it holds raw 64-bit PCG64 words and
 * positions count words: each singleton's link-loss draw consumes one
 * whole word — ``(word >> 11) * 2^-53 < p_loss``, numpy's exact
 * ``Generator.random()`` conversion — while frame draws split words into
 * 32-bit lanes low-half first, carrying an unused high lane across frames
 * in the spare register, exactly like ``_raw_frame_draw`` in Python.
 *
 * Returns 0 on success, 1 when the buffer ran out (out_i[0] then holds
 * the number of lanes/words needed from the entry position onward; the
 * caller refills and re-runs the whole round — no state was committed).
 */
long repro_run_round(
    const double *dpar,
    const int64_t *ipar,
    const uint32_t *lanes,
    int64_t lane_len,
    int64_t lane_pos,
    uint8_t *seen,
    int32_t *draws,
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
    const uint64_t *words = (const uint64_t *)lanes;
    const int64_t lane_start = lane_pos;

    double t = dpar[0];
    int q = (int)ipar[2];
    double qfp = (double)q;
    int64_t frame_length = (int64_t)1 << q;
    /* Spare 32-bit lane carried across frame draws (word mode only);
     * reset from ipar on every retry, so a NEED_LANES re-run replays the
     * round from a clean slate. */
    int64_t spare = ipar[5];

    int64_t n_empty = 0, n_single = 0, n_collision = 0;
    int64_t n_duplicate = 0, n_adjusts = 0, n_frames = 0;
    int64_t n_seen = 0, n_reads = 0, slot_counter = 0;
    int64_t n_lost = 0;
    int truncated = 0;

    /* seen is kernel-owned scratch: clearing it here (rather than in
     * Python) also resets any partial state from a NEED_LANES retry. */
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
            if (!has_loss) {
                if (lane_pos + size > lane_len) {
                    /* Caller refills, retries the round from lane_start. */
                    out_i[0] = (lane_pos - lane_start) + size;
                    return 1;
                }
                for (int64_t i = 0; i < size; i++) {
                    int32_t d = (int32_t)(lanes[lane_pos + i] >> shift);
                    draws[i] = d;
                    counts[d]++;
                    owner[d] = (int32_t)i;
                }
                lane_pos += size;
            } else {
                const int64_t need = size - (spare >= 0 ? 1 : 0);
                const int64_t n_words = (need + 1) >> 1;
                if (lane_pos + n_words > lane_len) {
                    out_i[0] = (lane_pos - lane_start) + n_words;
                    return 1;
                }
                int64_t i = 0;
                if (spare >= 0) {
                    int32_t d = (int32_t)((uint32_t)spare >> shift);
                    draws[i] = d;
                    counts[d]++;
                    owner[d] = (int32_t)i;
                    i++;
                    spare = -1;
                }
                while (i < size) {
                    const uint64_t w = words[lane_pos++];
                    const uint32_t lo = (uint32_t)w;
                    const uint32_t hi = (uint32_t)(w >> 32);
                    int32_t d = (int32_t)(lo >> shift);
                    draws[i] = d;
                    counts[d]++;
                    owner[d] = (int32_t)i;
                    i++;
                    if (i < size) {
                        d = (int32_t)(hi >> shift);
                        draws[i] = d;
                        counts[d]++;
                        owner[d] = (int32_t)i;
                        i++;
                    } else {
                        spare = (int64_t)hi;
                    }
                }
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
                if (has_loss) {
                    if (lane_pos >= lane_len) {
                        out_i[0] = (lane_pos - lane_start) + 1;
                        return 1;
                    }
                    const uint64_t w = words[lane_pos++];
                    if ((double)(w >> 11) * 0x1p-53 < p_loss) {
                        n_lost++;
                        slot_counter++;
                        continue;
                    }
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

    out_i[0] = lane_pos;
    out_i[1] = n_empty;
    out_i[2] = n_single;
    out_i[3] = n_collision;
    out_i[4] = n_duplicate;
    out_i[5] = n_adjusts;
    out_i[6] = n_frames;
    out_i[7] = truncated;
    out_i[8] = n_reads;
    out_i[9] = slot_counter;
    out_i[10] = spare;
    out_i[11] = n_lost;
    out_d[0] = t;
    return 0;
}
"""


def kernel_source_hash() -> str:
    """Hash of the embedded C source (keys the build cache)."""
    return hashlib.sha256(_C_SOURCE.encode("utf-8")).hexdigest()[:16]


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
    fn.restype = ctypes.c_long
    fn.argtypes = [
        ctypes.c_void_p,  # dpar
        ctypes.c_void_p,  # ipar
        ctypes.c_void_p,  # lanes
        ctypes.c_int64,  # lane_len
        ctypes.c_int64,  # lane_pos
        ctypes.c_void_p,  # seen
        ctypes.c_void_p,  # draws
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
