"""Lazily compiled C micro-kernels: the calendar inventory engine, the
scene's observation pass and the motion assessor's mixture update.

One embedded C source holds all three kernels; it is built once into one
cached shared object.

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
- a round costs about one draw per lane, and the lanes are the sum over
  its frames of the contenders (every QueryAdjust redraws them all).  On
  a PCG64, whose ``next_uint32`` hands out the low and then the high
  half of one 64-bit word, rounds over enough participants take two
  lanes per ``next_uint64`` (``draw_frame``) from the 32-bit buffer flag
  the caller reads out of ``bit_generator.state``, with ``next_uint32``
  for a lane due from the buffer and for a frame's last one or two
  lanes, so the buffer's flag and value end as the per-lane draws leave
  them.  :func:`paired_lanes_ok` checks this against per-lane
  ``Generator.integers`` at the first such round;
- the Q-walk uses the same double arithmetic (``qfp ± c`` with [0, 15]
  clamps) and C ``rint`` — round-half-to-even, exactly Python's
  ``round(float)`` — for the QueryAdjust decision;
- simulated time accrues through the same sequence of double additions, so
  every read timestamp matches the sequential walk bit for bit.

The motion assessor (:class:`~repro.core.motion.MotionAssessor`) settles a
whole reading batch in one call to ``repro_gmm_update``, a transliteration
of :meth:`~repro.core.gmm.GaussianMixtureStack.update` over its columnar
shard rows.  Its exactness rests on calling what the Python code calls:
numpy's own float64 ``exp`` loop (bound from the ``np.exp`` ufunc's loop
table) and libm ``pow`` for every square, built without floating-point
contraction.  :func:`load_gmm_kernel` checks both against the Python
operations on a fixed sample at load time and returns ``None`` on any
mismatch.

The scene (:meth:`~repro.world.scene.Scene.observe_batch`) settles a
round's phase/RSS reports in one call to ``repro_observe``, straight from
the calendar kernel's read rows: gather each read's cached bases, or
compute them for stationary and circular tags in a scene without ambient
scatterers (writing stationary tags' into the port's table), add the
round's noise, quantise and wrap, exactly as the scene's Python does read
by read (``Scene._measurement_bases_for``, then
:func:`~repro.radio.measurement.settle_report`).  The bases are the
Python's operations in the same order: libm ``cos``/``sin``/``hypot``,
``fma`` for the distance (what ``np.dot`` computes), numpy's own float64
``arctan2`` and ``log10`` loops for ``np.angle`` and ``np.log10``, and a
zero magnitude handed back so Python raises its own error.
:func:`load_observe_kernel` runs at the first round, never at import, and
checks the kernel bit for bit against ``settle_report`` on ties, signed
zeros and wraps and against the Python bases on a fixed sample of
stationary and circular tags, antennas and channels; it returns ``None``
on any mismatch.  Only the loops a kernel needs are bound, when it is
first loaded.

The kernels are OPTIONAL.  They are compiled on first use with the system
C compiler (against numpy's and Python's headers) into a cache directory
and loaded via :mod:`ctypes`; when no compiler is available (or
``REPRO_CALENDAR_CKERNEL=0``), the calendar engine silently falls back to
the pure-Python slot walk, the scene to its ``settle_report`` loop and the
motion assessor to ``GaussianMixtureStack.update``, all always correct —
only slower.
Nothing is downloaded and no third-party package is required.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.util.circular import TWO_PI

__all__ = [
    "load_kernel",
    "load_gmm_kernel",
    "load_observe_kernel",
    "kernel_source_hash",
    "MAX_FRAME",
]

#: Largest Gen2 frame (Q = 15).  Scratch buffers are sized to this.
MAX_FRAME = 1 << 15

_C_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#define NO_IMPORT_UFUNC
#include "numpy/ndarraytypes.h"
#include "numpy/ufuncobject.h"
#include "numpy/random/bitgen.h"
#include <stdint.h>
#include <math.h>

/* One read: a row of gen2/inventory.py's ReadColumns.packed. */
typedef struct {
    int64_t tag;
    double time;
    int64_t slot;
} read_record;

/* Lane i of a frame, the slot x >> shift: counted into counts/owner, or
 * stored in lanes[i] when lanes is not NULL (the first-use probe). */
static inline void put_lane(int64_t i, uint32_t x, int shift, int32_t *counts,
                            int32_t *owner, int32_t *lanes)
{
    const int32_t d = (int32_t)(x >> shift);
    if (lanes != NULL) {
        lanes[i] = d;
    } else {
        counts[d]++;
        owner[d] = (int32_t)i;
    }
}

/* next_uint32, keeping *buffered in step with PCG64's 32-bit buffer. */
static inline uint32_t lane32(bitgen_t *bg, int *buffered)
{
    *buffered ^= 1;
    return bg->next_uint32(bg->state);
}

/* Draw a frame's `size` lanes as Generator.integers(0, 2**(32 - shift),
 * size) draws them: lane i is the i-th next_uint32 >> shift.
 *
 * With `paired` (the generator is a PCG64 whose 32-bit buffer flag is
 * *buffered), lanes come two per next_uint64.  PCG64's next_uint32
 * returns the low half of a fresh 64-bit word and buffers the high half
 * (flag and value) for the next call; next_uint64 neither reads nor
 * writes that buffer.  So a word's low and high halves are two
 * consecutive lanes, and the buffer's state is all that must be kept:
 * a lane due from the buffer comes from next_uint32, and so do the last
 * lane (an odd one, left buffered) or the last two (the second recording
 * the high half the state holds), exactly as the per-lane draws leave it.
 */
static inline void draw_frame(bitgen_t *bg, int64_t size, int shift,
                              int paired, int *buffered, int32_t *counts,
                              int32_t *owner, int32_t *lanes)
{
    int64_t i = 0;
    if (paired) {
        if (*buffered && size > 0) {
            put_lane(0, lane32(bg, buffered), shift, counts, owner, lanes);
            i = 1;
        }
        for (; i + 2 < size; i += 2) {
            const uint64_t w = bg->next_uint64(bg->state);
            put_lane(i, (uint32_t)w, shift, counts, owner, lanes);
            put_lane(i + 1, (uint32_t)(w >> 32), shift, counts, owner, lanes);
        }
    }
    for (; i < size; i++)
        put_lane(i, lane32(bg, buffered), shift, counts, owner, lanes);
}

/* The first-use probe: n_frames frames of sizes[f] lanes of q bits,
 * drawn one after another as the kernel pairs them (the buffer flag
 * carried across frames from `buffered`), into lanes. */
void repro_probe_lanes(bitgen_t *bg, int64_t buffered, int64_t q,
                       int64_t n_frames, const int64_t *sizes, int32_t *lanes)
{
    int flag = (int)buffered;
    for (int64_t f = 0; f < n_frames; f++) {
        draw_frame(bg, sizes[f], 32 - (int)q, 1, &flag, NULL, NULL, lanes);
        lanes += sizes[f];
    }
}

/* One inventory round, settled slot by slot.
 *
 * Mirrors the sequential reference walk with the QAdaptive/FixedQ
 * controller inlined: same draws from the same bit generator, same double
 * arithmetic, same truncation checks.
 *
 * dpar: [t_start, deadline, t_empty, t_single, t_collision, t_adjust,
 *        t_query, c, p_loss]
 * ipar: [n, strat (0 = FixedQ, 1 = QAdaptive), q0, with_replacement,
 *        max_slots, lanes (-1: one next_uint32 per lane; 0 or 1: paired
 *        draws from a PCG64 whose 32-bit buffer flag is this value)]
 * out_i: [n_empty, n_single, n_collision, n_duplicate, n_adjusts,
 *         n_frames, truncated, n_reads, n_slots, n_lost]
 * out_d: [t_end]
 * ids: the participants' tag indices; reads[i] is read i: its tag index,
 *      time and slot in the round (a row of ReadColumns.packed).
 *
 * bg is the engine generator's bitgen_t; the caller holds the bit
 * generator's lock.  A frame lane is next_uint32 >> (32 - q), which is
 * what Generator.integers(0, 2**q) returns (see draw_frame); a
 * singleton's loss draw is next_double, which is what Generator.random()
 * returns.
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
    const int64_t *ids,
    read_record *reads)
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
    const int paired = ipar[5] >= 0;
    int buffered = ipar[5] == 1;
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
            for (int64_t i = 0; i < frame_length; i++) counts[i] = 0;
            draw_frame(bg, size, 32 - q, paired, &buffered, counts, owner,
                       NULL);
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
                reads[n_reads].tag = ids[p_i];
                reads[n_reads].time = t;
                reads[n_reads].slot = slot_counter;
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

/* ---- numpy's own float64 loops ----
 *
 * The Python code calls np.exp, np.angle (np.arctan2) and np.log10, and
 * libm rounds each of them differently from numpy on some inputs, so the
 * kernels call numpy's d->d (dd->d) inner loops, read from the ufuncs'
 * loop tables by repro_bind_loop, one element at a time.
 */
enum { NP_EXP, NP_ARCTAN2, NP_LOG10, NP_N_LOOPS };
static const int np_loop_nin[NP_N_LOOPS] = {1, 2, 1};
static PyUFuncGenericFunction np_loop[NP_N_LOOPS];
static void *np_loop_data[NP_N_LOOPS];

/* Bind the all-double inner loop of ufunc to slot; 1 on success. */
int repro_bind_loop(int64_t slot, const PyUFuncObject *ufunc)
{
    if (slot < 0 || slot >= NP_N_LOOPS) return 0;
    const int nin = np_loop_nin[slot];
    if (ufunc->nin != nin || ufunc->nout != 1) return 0;
    for (int i = 0; i < ufunc->ntypes; i++) {
        int all_double = 1;
        for (int a = 0; a <= nin; a++)
            if (ufunc->types[(nin + 1) * i + a] != NPY_DOUBLE) all_double = 0;
        if (all_double) {
            np_loop[slot] = ufunc->functions[i];
            np_loop_data[slot] = ufunc->data != NULL ? ufunc->data[i] : NULL;
            return np_loop[slot] != NULL;
        }
    }
    return 0;
}

static double np_unary(int slot, double x)
{
    double y;
    char *args[2] = {(char *)&x, (char *)&y};
    const npy_intp n = 1;
    const npy_intp steps[2] = {sizeof(double), sizeof(double)};
    np_loop[slot](args, &n, steps, np_loop_data[slot]);
    return y;
}

static double np_exp(double x) { return np_unary(NP_EXP, x); }
static double np_log10(double x) { return np_unary(NP_LOG10, x); }

static double np_arctan2(double y, double x)
{
    double out;
    char *args[3] = {(char *)&y, (char *)&x, (char *)&out};
    const npy_intp n = 1;
    const npy_intp steps[3] = {sizeof(double), sizeof(double), sizeof(double)};
    np_loop[NP_ARCTAN2](args, &n, steps, np_loop_data[NP_ARCTAN2]);
    return out;
}

/* The load-time probes compare these with np.exp, np.arctan2, np.log10. */
void repro_probe_loop(int64_t slot, const double *x, const double *x2,
                      double *y, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        y[i] = slot == NP_ARCTAN2 ? np_arctan2(x[i], x2[i])
                                  : np_unary((int)slot, x[i]);
}

/* ---- Motion assessor: the Gaussian-mixture update of core/gmm.py ----
 *
 * GaussianMixtureStack.update, transliterated operation for operation
 * (circular mode only), over shard rows stored column by column.  Three
 * things keep it bit-identical to the Python walk:
 *
 * - the density's exp is numpy's own float64 loop (np_exp above),
 *   because the Python code calls np.exp and libm's exp rounds
 *   differently on some inputs;
 * - a square is libm pow(x, 2.0), what Python's x**2 computes, called
 *   through a volatile pointer so the compiler cannot fold it into x*x;
 * - the build passes -ffp-contract=off: no multiply-add is fused.
 */
static double (*volatile libm_pow)(double, double) = pow;

/* Python's float x**2: pow of the magnitude (float_pow strips the sign
 * of a negative base raised to an integer power). */
static double square(double x)
{
    return libm_pow(fabs(x), 2.0);
}

/* The load-time probe compares this with x**2. */
void repro_probe_square(const double *x, double *y, int64_t n)
{
    for (int64_t i = 0; i < n; i++) y[i] = square(x[i]);
}

static double circular_distance(double a, double b, double two_pi, double pi)
{
    double ra = fmod(a, two_pi);
    if (ra < 0.0) ra += two_pi;
    double rb = fmod(b, two_pi);
    if (rb < 0.0) rb += two_pi;
    const double diff = fabs(ra - rb);
    return diff <= pi ? diff : two_pi - diff;
}

static double priority(double weight, double std)
{
    return std > 0.0 ? weight / std : INFINITY;
}

/* Feed n readings, in arrival order, each into its shard's row.
 *
 * dpar: [two_pi, pi, sqrt_two_pi, learning_rate, match_threshold,
 *        initial_std, initial_weight, min_std, reliable_weight,
 *        reliable_std, max_update_step]
 * ipar: [max_modes, reliable_run]
 * cols: [mean, std, weight, n_matches, current_run, best_run] (row-major,
 *        max_modes per row), then [n_modes, n_updates] (one per row) and
 *        a max_modes-long double scratch buffer.
 * stationary[i] is the verdict on reading i.
 */
void repro_gmm_update(
    const double *dpar,
    const int64_t *ipar,
    void *const *cols,
    int64_t n,
    const int64_t *rows,
    const double *values,
    uint8_t *stationary)
{
    const double two_pi = dpar[0];
    const double pi = dpar[1];
    const double sqrt_two_pi = dpar[2];
    const double alpha = dpar[3];
    const double threshold = dpar[4];
    const double initial_std = dpar[5];
    const double initial_weight = dpar[6];
    const double min_std = dpar[7];
    const double reliable_weight = dpar[8];
    const double reliable_std = dpar[9];
    const double max_step = dpar[10];
    const int64_t max_modes = ipar[0];
    const int64_t reliable_run = ipar[1];
    const double decay = 1.0 - alpha;
    double *pri = (double *)cols[8];

    for (int64_t r = 0; r < n; r++) {
        const int64_t row = rows[r];
        const double value = values[r];
        double *mean = (double *)cols[0] + row * max_modes;
        double *std = (double *)cols[1] + row * max_modes;
        double *weight = (double *)cols[2] + row * max_modes;
        int64_t *n_matches = (int64_t *)cols[3] + row * max_modes;
        int64_t *current_run = (int64_t *)cols[4] + row * max_modes;
        int64_t *best_run = (int64_t *)cols[5] + row * max_modes;
        int64_t *n_modes = (int64_t *)cols[6] + row;
        const int64_t k = *n_modes;
        ((int64_t *)cols[7])[row]++;

        /* Modes in descending priority, first of the maxima first. */
        int64_t m = -1;
        for (int64_t i = 0; i < k; i++) pri[i] = priority(weight[i], std[i]);
        for (int64_t rank = 0; rank < k; rank++) {
            int64_t best_i = 0;
            double best_p = pri[0];
            for (int64_t i = 1; i < k; i++) {
                if (pri[i] > best_p) {
                    best_p = pri[i];
                    best_i = i;
                }
            }
            const double d = circular_distance(value, mean[best_i], two_pi, pi);
            if (d < threshold * std[best_i]) {
                m = best_i;
                break;
            }
            pri[best_i] = -1.0;
        }

        if (m < 0) {
            /* No match: in motion; push a fresh mode, evicting the first
             * least-priority mode of a full stack. */
            for (int64_t i = 0; i < k; i++) current_run[i] = 0;
            int64_t slot = k;
            if (k >= max_modes) {
                slot = 0;
                double lowest = priority(weight[0], std[0]);
                for (int64_t i = 1; i < k; i++) {
                    const double p = priority(weight[i], std[i]);
                    if (p < lowest) {
                        lowest = p;
                        slot = i;
                    }
                }
            } else {
                *n_modes = k + 1;
            }
            mean[slot] = value;
            std[slot] = initial_std;
            weight[slot] = initial_weight;
            n_matches[slot] = 1;
            current_run[slot] = 1;
            best_run[slot] = 1;
            stationary[r] = 0;
            continue;
        }

        const double s = std[m];
        stationary[r] = weight[m] >= reliable_weight && s <= reliable_std
            && best_run[m] >= reliable_run;
        n_matches[m]++;
        const double inv_n = 1.0 / (double)n_matches[m];
        double rho;
        if (inv_n >= max_step || alpha / (s * sqrt_two_pi) <= inv_n) {
            rho = inv_n;
        } else {
            const double d = circular_distance(value, mean[m], two_pi, pi);
            const double coeff = 1.0 / (s * sqrt_two_pi);
            const double pdf = coeff * np_exp(-square(d) / (2.0 * square(s)));
            const double a = alpha * pdf;
            rho = inv_n > a ? inv_n : a;
        }
        rho = 0.0 > rho ? 0.0 : rho;
        rho = max_step < rho ? max_step : rho;

        double delta = fmod(value - mean[m], two_pi);
        if (delta < 0.0) delta += two_pi;
        if (delta > pi) delta -= two_pi;
        double shifted = fmod(mean[m] + rho * delta, two_pi);
        if (shifted < 0.0) shifted += two_pi;
        const double deviation = circular_distance(value, shifted, two_pi, pi);
        const double new_var = (1.0 - rho) * square(s) + rho * square(deviation);
        const double root = sqrt(new_var);
        mean[m] = shifted;
        std[m] = min_std > root ? min_std : root;
        for (int64_t i = 0; i < k; i++) {
            if (i == m) {
                weight[i] = decay * weight[i] + alpha;
                const int64_t run = current_run[i] + 1;
                current_run[i] = run;
                if (run > best_run[i]) best_run[i] = run;
            } else {
                weight[i] = decay * weight[i];
                current_run[i] = 0;
            }
        }
    }
}

/* ---- Scene: a round's phase/RSS reports (world/scene.py) ----
 *
 * The scalar loop of repro.radio.measurement.settle_report, operation for
 * operation: base plus std times a standard normal, quantisation as
 * round(x / q) * q, and fmod with a negative remainder moved one period
 * up and a zero remainder made +0.0 (what np.mod gives).  Python's round()
 * is half-to-even, as nearbyint is in the default rounding mode, but it
 * returns the int 0 where nearbyint gives -0.0, and int 0 times q is
 * +0.0: hence the explicit zero.  Built without floating-point
 * contraction, so base + std * z is rounded twice.
 */
static double quantise(double x, double q)
{
    double r = nearbyint(x / q);
    if (r == 0.0) r = 0.0;
    return r * q;
}

static void settle(const double *dpar, double phase_base, double rss_base,
                   const double *z, double *phase_out, double *rss_out)
{
    const double two_pi = dpar[4];
    double phase = phase_base + dpar[0] * z[0];
    if (dpar[2] > 0.0) phase = quantise(phase, dpar[2]);
    phase = fmod(phase, two_pi);
    if (phase < 0.0) phase += two_pi;
    else if (phase == 0.0) phase = 0.0;
    double rss = rss_base + dpar[1] * z[1];
    if (dpar[3] > 0.0) rss = quantise(rss, dpar[3]);
    *phase_out = phase;
    *rss_out = rss;
}

/* Tag kinds: bases the kernel computes itself (stationary and circular
 * trajectories in a scene without ambient scatterers), or leaves to
 * Scene._measurement_bases_for (KIND_PYTHON). */
enum { KIND_PYTHON = 0, KIND_STATIONARY = 1, KIND_CIRCULAR = 2 };

/* One read's deterministic (phase, RSS) bases, as Scene's Python resolve
 * pass computes them (world/motion.py, radio/channel.py,
 * radio/measurement.py), operation for operation:
 *
 * - a circular tag sits at centre + radius (cos, sin) of
 *   phase0 + speed * max(0, t - start) / radius, at the centre's z + 0.0;
 * - the direct-path distance is sqrt(fma(dz, dz, fma(dy, dy, dx * dx))),
 *   which is what np.dot(d, d) computes (repro.radio.geometry);
 * - the one-way gain is amp * (cos y + j sin y) with amp the free-space
 *   amplitude clamped at half a wavelength and y = (-(2 pi) d) / lambda;
 *   the round trip squares it as Python multiplies complex numbers;
 * - |gain| is hypot, the phase base np.angle (numpy's arctan2 loop) plus
 *   the tag's and the port's offsets, the RSS base tx + 20 log10 |gain|
 *   with numpy's log10 loop.
 *
 * tp: the tag's row [phase_offset, x, y, z, radius, speed, phase0, start]
 *     (the position, or a circle's centre and motion);
 * port: [ax, ay, az, wavelength, lo_offset] of the read's (antenna,
 *     channel); dpar[5] is the noise model's tx constant, dpar[6] 4 pi.
 * Returns 0 for a zero magnitude, which the caller hands back to Python
 * so it raises its own error; 1 otherwise.
 */
static int bases(const double *dpar, int kind, const double *tp,
                 const double *port, double t, double *phase_base,
                 double *rss_base)
{
    double px = tp[1], py = tp[2], pz = tp[3];
    if (kind == KIND_CIRCULAR) {
        const double radius = tp[4];
        double elapsed = t - tp[7];
        if (!(elapsed > 0.0)) elapsed = 0.0; /* max(0.0, elapsed) */
        const double angle = tp[6] + tp[5] * elapsed / radius;
        px = tp[1] + radius * cos(angle);
        py = tp[2] + radius * sin(angle);
        pz = tp[3] + 0.0;
    }
    const double dx = port[0] - px, dy = port[1] - py, dz = port[2] - pz;
    const double d = sqrt(fma(dz, dz, fma(dy, dy, dx * dx)));
    const double lam = port[3];
    const double half = lam / 2.0;
    const double amp = lam / (dpar[6] * (half > d ? half : d));
    const double y = (-dpar[4] * d) / lam;
    const double gr = amp * cos(y), gi = amp * sin(y);
    const double hr = gr * gr - gi * gi, hi = gr * gi + gi * gr;
    const double magnitude = hypot(hr, hi);
    if (magnitude <= 0.0) return 0;
    *phase_base = np_arctan2(hi, hr) + tp[0] + port[4];
    *rss_base = dpar[5] + 20.0 * np_log10(magnitude);
    return 1;
}

/* Settle n reads of one (antenna, channel) port.
 *
 * cols: [dpar, z, phase, rss, missing, bases, kind, tagpar]
 *   dpar: [phase_std, rss_std, phase_quantum, rss_quantum, two_pi,
 *          tx_constant, four_pi]
 *   z[2i], z[2i + 1]: read i's phase and RSS noise draws; phase[i],
 *   rss[i]: its report.  kind[tag], tagpar[8 * tag]: each tag's kind and
 *   row (see bases()).
 * reads: the round's reads, a C-contiguous ndarray of read_record rows
 *   (tag index and time of read i), passed as the array object so the
 *   caller need not look up its address; only its data pointer is read.
 * table: the port's bases, (phase, rss) at 2 * tag for tags 0..n_tags-1;
 *   NaN where none is cached.  The kernel fills in stationary tags' rows.
 * port: the port's row (see bases()).
 *
 * With n_resolve == 0, settles every read whose bases are in the table
 * or computed here, lists the others (a KIND_PYTHON tag, a zero
 * magnitude, any tag index outside the table) in missing[] and returns
 * how many there are.  With n_resolve > 0, settles the first n_resolve
 * reads of missing[] from the per-read bases[2i], bases[2i + 1] the
 * caller filled in, and returns 0.
 */
int64_t repro_observe(void *const *cols, PyObject *rows, double *table,
                      const double *port, int64_t n_tags, int64_t n,
                      int64_t n_resolve)
{
    const read_record *reads =
        (const read_record *)PyArray_DATA((PyArrayObject *)rows);
    const double *dpar = (const double *)cols[0];
    const double *z = (const double *)cols[1];
    double *phase = (double *)cols[2];
    double *rss = (double *)cols[3];
    int64_t *missing = (int64_t *)cols[4];
    const double *resolved = (const double *)cols[5];
    const int8_t *kind = (const int8_t *)cols[6];
    const double *tagpar = (const double *)cols[7];

    if (n_resolve > 0) {
        for (int64_t j = 0; j < n_resolve; j++) {
            const int64_t i = missing[j];
            settle(dpar, resolved[2 * i], resolved[2 * i + 1], z + 2 * i,
                   phase + i, rss + i);
        }
        return 0;
    }
    int64_t n_missing = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t k = reads[i].tag;
        if (k < 0 || k >= n_tags) {
            missing[n_missing++] = i;
            continue;
        }
        double *row = table + 2 * k;
        if (isnan(row[0])) {
            double pb, rb;
            if (kind[k] == KIND_PYTHON
                    || !bases(dpar, kind[k], tagpar + 8 * k, port,
                              reads[i].time, &pb, &rb)) {
                missing[n_missing++] = i;
                continue;
            }
            if (kind[k] == KIND_STATIONARY) {
                row[0] = pb;
                row[1] = rb;
            }
            settle(dpar, pb, rb, z + 2 * i, phase + i, rss + i);
            continue;
        }
        settle(dpar, row[0], row[1], z + 2 * i, phase + i, rss + i);
    }
    return n_missing;
}

/* The load-time probe: the bases of n reads (cols as repro_observe's),
 * into out[2i], out[2i + 1]; NaN where the kernel would hand the read
 * back to Python. */
void repro_probe_bases(void *const *cols, PyObject *rows,
                       const double *port, int64_t n, double *out)
{
    const read_record *reads =
        (const read_record *)PyArray_DATA((PyArrayObject *)rows);
    const double *dpar = (const double *)cols[0];
    const int8_t *kind = (const int8_t *)cols[6];
    const double *tagpar = (const double *)cols[7];
    for (int64_t i = 0; i < n; i++) {
        const int64_t k = reads[i].tag;
        if (kind[k] == KIND_PYTHON
                || !bases(dpar, kind[k], tagpar + 8 * k, port, reads[i].time,
                          out + 2 * i, out + 2 * i + 1)) {
            out[2 * i] = NAN;
            out[2 * i + 1] = NAN;
        }
    }
}
"""


#: Compiler flags.  ``-ffp-contract=off``: the mixture update must round
#: every multiply and add on its own, as Python does.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def include_dirs() -> List[str]:
    """Header directories the kernel source needs: numpy's and Python's."""
    import sysconfig  # only a build needs it

    return [np.get_include(), sysconfig.get_paths()["include"]]


def kernel_source_hash() -> str:
    """Hash of the embedded C source, the compiler flags, and the numpy and
    Python versions (keys the build cache: the kernel is compiled against
    numpy's ``bitgen_t`` and ufunc layouts, so an upgrade must rebuild it)."""
    key = (
        f"{_C_SOURCE}\0{' '.join(_CFLAGS)}\0numpy {np.__version__}"
        f"\0python {sys.version}"
    )
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
                        *_CFLAGS,
                        *(f"-I{path}" for path in include_dirs()),
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
    """Compile (once) and load the C kernels; ``None`` when unavailable.

    Gated by ``REPRO_CALENDAR_CKERNEL`` (set to ``0`` to force the
    pure-Python fallbacks of the calendar engine, the scene's observation
    pass and the motion assessor, e.g. to benchmark them or on systems
    without a C compiler).  The build is cached per source hash, so
    subsequent runs only pay a ``dlopen``.
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
        ctypes.c_void_p,  # ids
        ctypes.c_void_p,  # reads
    ]
    _LOADED = lib
    return _LOADED


_PAIRED_LANES: Optional[bool] = None


def paired_lanes_ok() -> bool:
    """Whether the calendar kernel may take two frame lanes from each
    64-bit word of a PCG64 (``draw_frame`` in the C source).

    Decided at the first round that would pair its draws, never at import
    or load: :func:`~repro.gen2._kernel_probes.paired_lanes_probe_passes`
    checks paired lanes and the generator's end state against per-lane
    ``Generator.integers`` on scratch PCG64s.  False when the shared
    object is unavailable or on any mismatch; every round then draws one
    ``next_uint32`` per lane.
    """
    global _PAIRED_LANES
    if _PAIRED_LANES is None:
        lib = load_kernel()
        if lib is None:
            _PAIRED_LANES = False
        else:
            from repro.gen2 import _kernel_probes as probes

            _PAIRED_LANES = probes.paired_lanes_probe_passes(lib)
    return _PAIRED_LANES


_GMM: Optional[Callable[..., None]] = None
_GMM_ATTEMPTED = False

#: The ufuncs whose float64 loops the kernels call, in the slot order of
#: ``repro_bind_loop``: the motion assessor's exp, the scene's arctan2
#: (``np.angle``) and log10.
_LOOP_UFUNCS = (np.exp, np.arctan2, np.log10)
NP_EXP, NP_ARCTAN2, NP_LOG10 = 0, 1, 2
#: slot -> whether its loop is bound and passed its probe; a slot is
#: bound by the first kernel that needs it.
_LOOPS_ATTEMPTED: Dict[int, bool] = {}


def _bind_loops(lib, *slots: int) -> bool:
    """Bind numpy's float64 loops of ``slots`` into the kernels (each
    once); False when one cannot be bound or differs, in any bit, from
    the scalar ufunc call on
    :func:`~repro.gen2._kernel_probes.loop_probe_samples`."""
    pending = [slot for slot in slots if slot not in _LOOPS_ATTEMPTED]
    if pending:
        from repro.gen2 import _kernel_probes as probes

        lib.repro_bind_loop.restype = ctypes.c_int
        lib.repro_bind_loop.argtypes = [ctypes.c_int64, ctypes.c_void_p]
        samples = probes.loop_probe_samples()
        for slot in pending:
            ufunc = _LOOP_UFUNCS[slot]
            _LOOPS_ATTEMPTED[slot] = bool(
                lib.repro_bind_loop(slot, id(ufunc))
            ) and probes.loop_probe_passes(lib, slot, ufunc, samples[slot])
    return all(_LOOPS_ATTEMPTED[slot] for slot in slots)


def load_gmm_kernel() -> Optional[Callable[..., None]]:
    """The motion assessor's ``repro_gmm_update``; ``None`` when unavailable.

    Unavailable when the shared object is (see :func:`load_kernel`), or
    when numpy's loops cannot be bound (see :func:`_bind_loops`) or the
    kernel's square disagrees with Python's ``x**2`` on a deterministic
    sample: the assessor then runs the Python update.
    """
    global _GMM, _GMM_ATTEMPTED
    if _GMM_ATTEMPTED:
        return _GMM
    _GMM_ATTEMPTED = True
    lib = load_kernel()
    if lib is None or not _bind_loops(lib, NP_EXP):
        return None
    from repro.gen2 import _kernel_probes as probes

    if not probes.square_probe_passes(lib):
        return None  # pragma: no cover - platform-dependent rounding
    fn = lib.repro_gmm_update
    fn.restype = None
    fn.argtypes = [
        ctypes.c_void_p,  # dpar
        ctypes.c_void_p,  # ipar
        ctypes.c_void_p,  # cols
        ctypes.c_int64,  # n
        ctypes.c_void_p,  # rows
        ctypes.c_void_p,  # values
        ctypes.c_void_p,  # stationary
    ]
    _GMM = fn
    return _GMM


_OBSERVE: Optional[Callable[..., int]] = None
_OBSERVE_ATTEMPTED = False

#: Tag kinds of ``repro_observe``: bases it computes itself (stationary
#: and circular tags), or leaves to the scene's Python resolve pass.
KIND_PYTHON, KIND_STATIONARY, KIND_CIRCULAR = 0, 1, 2
#: A tag's row in ``repro_observe``'s tag columns: ``[phase_offset, x, y,
#: z, radius, speed, phase0, start_time]`` (a stationary tag's position,
#: or a circle's centre and motion).
TAG_ROW = 8


def observe_dpar(noise) -> List[float]:
    """``repro_observe``'s parameter block for a
    :class:`~repro.radio.measurement.NoiseModel`."""
    return [
        noise.phase_noise_std_rad,
        noise.rss_noise_std_db,
        noise.phase_quantum_rad,
        noise.rss_quantum_db,
        TWO_PI,
        noise.tx_constant_dbm,
        4.0 * np.pi,
    ]


class ObserveScratch:
    """Buffers and cached pointers of one scene's compiled observation
    pass (``repro_observe``), grown geometrically and reused every round.

    ``kind`` (int8) and ``tagpar`` (``TAG_ROW`` float64 per tag) are the
    scene's tag columns; ``cols`` is the kernel's column block, in the
    order it reads them.  The round's reads are the calendar kernel's own
    rows (:attr:`~repro.gen2.inventory.ReadColumns.packed`), read in
    place.
    """

    __slots__ = (
        "fn",
        "noise",
        "dpar",
        "kind",
        "tagpar",
        "cap",
        "z",
        "phase",
        "rss",
        "missing",
        "bases",
        "cols",
        "cols_ptr",
    )

    def __init__(self, fn, kind: np.ndarray, tagpar: np.ndarray) -> None:
        self.fn = fn
        self.noise = None
        self.dpar = np.empty(7)
        self.kind = kind
        self.tagpar = tagpar
        self.cap = 0
        self.reserve(256)

    def bind(self, noise) -> None:
        self.dpar[:] = observe_dpar(noise)
        self.noise = noise

    def reserve(self, n: int) -> None:
        if n <= self.cap:
            return
        cap = max(256, self.cap)
        while cap < n:
            cap <<= 1
        self.cap = cap
        self.z = np.empty(2 * cap)
        self.phase = np.empty(cap)
        self.rss = np.empty(cap)
        self.missing = np.empty(cap, dtype=np.int64)
        self.bases = np.empty(2 * cap)
        arrays = (
            self.dpar, self.z, self.phase, self.rss, self.missing,
            self.bases, self.kind, self.tagpar,
        )
        self.cols = (ctypes.c_void_p * len(arrays))(
            *(a.ctypes.data for a in arrays)
        )
        self.cols_ptr = ctypes.addressof(self.cols)

    def settle(
        self, rng, noise, reads, table_ptr, port_ptr, n_tags, resolve,
        antenna_index, channel_index,
    ):
        """One round's (phase, RSS) columns: copies, in read order.

        ``reads`` is the round's ``ReadColumns.packed`` rows.  The round's
        noise is drawn from ``rng`` into ``z`` (the stream of
        ``standard_normal(2k)``).  One kernel call settles every read
        whose bases are in the port's table at ``table_ptr`` (row ``i``
        holds tag ``i``'s bases, NaN when not cached) or that it computes
        from the tag columns and the port's row at ``port_ptr``;
        ``resolve(tag, antenna_index, channel_index, t)`` gives the bases
        of each read it hands back, and a second call settles just those.
        """
        k = len(reads)
        self.reserve(k)
        rng.standard_normal(out=self.z[: 2 * k])
        if self.noise is not noise:
            self.bind(noise)
        n_missing = self.fn(
            self.cols_ptr, reads, table_ptr, port_ptr, n_tags, k, 0
        )
        if n_missing:
            bases = self.bases
            missing = self.missing[:n_missing]
            for j, tag, t in zip(
                missing.tolist(),
                reads[missing, 0].tolist(),
                reads[missing, 1].view(np.float64).tolist(),
            ):
                bases[2 * j], bases[2 * j + 1] = resolve(
                    tag, antenna_index, channel_index, t
                )
            self.fn(
                self.cols_ptr, reads, table_ptr, port_ptr, n_tags, k,
                n_missing,
            )
        return self.phase[:k].copy(), self.rss[:k].copy()


def load_observe_kernel() -> Optional[Callable[..., int]]:
    """The scene's ``repro_observe``; ``None`` when unavailable.

    Unavailable when the shared object is (see :func:`load_kernel`), when
    numpy's loops cannot be bound (see :func:`_bind_loops`), or when the
    kernel disagrees in any bit (the sign of a zero included) with
    :func:`repro.radio.measurement.settle_report` or with the scene's
    Python bases on the probes of :mod:`repro.gen2._kernel_probes`: the
    scene then runs its Python loop.  Called by the first
    :meth:`~repro.world.scene.Scene.observe_batch`, never at import.
    """
    global _OBSERVE, _OBSERVE_ATTEMPTED
    if _OBSERVE_ATTEMPTED:
        return _OBSERVE
    _OBSERVE_ATTEMPTED = True
    lib = load_kernel()
    if lib is None or not _bind_loops(lib, NP_ARCTAN2, NP_LOG10):
        return None
    from repro.gen2 import _kernel_probes as probes

    fn = lib.repro_observe
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ctypes.c_void_p,  # cols
        ctypes.py_object,  # reads
        ctypes.c_void_p,  # table
        ctypes.c_void_p,  # port
        ctypes.c_int64,  # n_tags
        ctypes.c_int64,  # n
        ctypes.c_int64,  # n_resolve
    ]
    if not (probes.settle_probe_passes(fn) and probes.bases_probe_passes(lib)):
        return None  # pragma: no cover - platform-dependent rounding
    _OBSERVE = fn
    return _OBSERVE
