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
round's phase/RSS reports in one call to ``repro_observe``: gather each
read's cached bases, add the round's noise, quantise and wrap, exactly as
:func:`~repro.radio.measurement.settle_report` does read by read.
:func:`load_observe_kernel` checks it against that function, bit for bit,
on ties, signed zeros and wraps at load time and returns ``None`` on any
mismatch.

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
from typing import Callable, List, Optional, Tuple

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
 * ids: the participants' tag indices; read_tag[i] is the tag index of
 *      read i, read_slot[i] its slot in the round, read_time[i] its time.
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
    const int64_t *ids,
    int64_t *read_tag,
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
                read_tag[n_reads] = ids[p_i];
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

/* ---- Motion assessor: the Gaussian-mixture update of core/gmm.py ----
 *
 * GaussianMixtureStack.update, transliterated operation for operation
 * (circular mode only), over shard rows stored column by column.  Three
 * things keep it bit-identical to the Python walk:
 *
 * - the density's exp is numpy's own float64 loop, read from np.exp's
 *   ufunc loop table (repro_bind_exp), because the Python code calls
 *   np.exp and libm's exp rounds differently on some inputs;
 * - a square is libm pow(x, 2.0), what Python's x**2 computes, called
 *   through a volatile pointer so the compiler cannot fold it into x*x;
 * - the build passes -ffp-contract=off: no multiply-add is fused.
 */
static PyUFuncGenericFunction np_exp_loop = NULL;
static void *np_exp_data = NULL;
static double (*volatile libm_pow)(double, double) = pow;

/* Bind the d->d inner loop of the np.exp ufunc; 1 on success. */
int repro_bind_exp(const PyUFuncObject *ufunc)
{
    if (ufunc->nin != 1 || ufunc->nout != 1) return 0;
    for (int i = 0; i < ufunc->ntypes; i++) {
        if (ufunc->types[2 * i] == NPY_DOUBLE
                && ufunc->types[2 * i + 1] == NPY_DOUBLE) {
            np_exp_loop = ufunc->functions[i];
            np_exp_data = ufunc->data != NULL ? ufunc->data[i] : NULL;
            return np_exp_loop != NULL;
        }
    }
    return 0;
}

static double np_exp(double x)
{
    double y;
    char *args[2] = {(char *)&x, (char *)&y};
    const npy_intp n = 1;
    const npy_intp steps[2] = {sizeof(double), sizeof(double)};
    np_exp_loop(args, &n, steps, np_exp_data);
    return y;
}

/* Python's float x**2: pow of the magnitude (float_pow strips the sign
 * of a negative base raised to an integer power). */
static double square(double x)
{
    return libm_pow(fabs(x), 2.0);
}

/* The load-time probes compare these two against np.exp and x**2. */
void repro_probe_exp(const double *x, double *y, int64_t n)
{
    for (int64_t i = 0; i < n; i++) y[i] = np_exp(x[i]);
}

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
 * up.  Python's round() is half-to-even, as nearbyint is in the default
 * rounding mode, but it returns the int 0 where nearbyint gives -0.0,
 * and int 0 times q is +0.0: hence the explicit zero.  Built without
 * floating-point contraction, so base + std * z is rounded twice.
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
    double rss = rss_base + dpar[1] * z[1];
    if (dpar[3] > 0.0) rss = quantise(rss, dpar[3]);
    *phase_out = phase;
    *rss_out = rss;
}

/* Settle n reads of one (antenna, channel) port.
 *
 * cols: [dpar, tag, z, phase, rss, missing, bases]
 *   dpar: [phase_std, rss_std, phase_quantum, rss_quantum, two_pi]
 *   tag[i]: read i's tag index; z[2i], z[2i + 1]: its phase and RSS
 *   noise draws; phase[i], rss[i]: its report.
 * table: the port's bases, (phase, rss) at 2 * tag for tags 0..n_tags-1;
 *   NaN where the scene has none cached (a moving or first-seen tag).
 *
 * With n_resolve == 0, settles every read whose tag has table bases,
 * lists the others (and any tag index outside the table) in missing[]
 * and returns how many there are.  With
 * n_resolve > 0, settles the first n_resolve reads of missing[] from the
 * per-read bases[2i], bases[2i + 1] the caller filled in, and returns 0.
 */
int64_t repro_observe(void *const *cols, const double *table,
                      int64_t n_tags, int64_t n, int64_t n_resolve)
{
    const double *dpar = (const double *)cols[0];
    const int64_t *tag = (const int64_t *)cols[1];
    const double *z = (const double *)cols[2];
    double *phase = (double *)cols[3];
    double *rss = (double *)cols[4];
    int64_t *missing = (int64_t *)cols[5];
    const double *bases = (const double *)cols[6];

    if (n_resolve > 0) {
        for (int64_t j = 0; j < n_resolve; j++) {
            const int64_t i = missing[j];
            settle(dpar, bases[2 * i], bases[2 * i + 1], z + 2 * i,
                   phase + i, rss + i);
        }
        return 0;
    }
    int64_t n_missing = 0;
    for (int64_t i = 0; i < n; i++) {
        if (tag[i] < 0 || tag[i] >= n_tags) {
            missing[n_missing++] = i;
            continue;
        }
        const double *row = table + 2 * tag[i];
        if (isnan(row[0])) {
            missing[n_missing++] = i;
            continue;
        }
        settle(dpar, row[0], row[1], z + 2 * i, phase + i, rss + i);
    }
    return n_missing;
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
        ctypes.c_void_p,  # read_tag
        ctypes.c_void_p,  # read_slot
        ctypes.c_void_p,  # read_time
    ]
    _LOADED = lib
    return _LOADED


_GMM: Optional[Callable[..., None]] = None
_GMM_ATTEMPTED = False


def _probe(fn, values, reference) -> bool:
    """True when the kernel maps ``values`` to exactly ``reference``."""
    x = np.asarray(values, dtype=np.float64)
    y = np.empty_like(x)
    fn(x.ctypes.data, y.ctypes.data, len(x))
    return y.tolist() == reference


def probe_samples() -> Tuple[List[float], List[float]]:
    """The load-time probe inputs: exp arguments and values to square.

    libm ``exp`` differs from ``np.exp`` on a few percent of arguments in
    [-5, 0], but ``x*x`` differs from ``pow(x, 2.0)`` on fewer than one
    value in a thousand, hence the larger square sample.
    """
    rng = np.random.default_rng(2017)
    exponents = rng.uniform(-5.0, 0.0, 512).tolist() + [0.0, -0.5, -745.0]
    roots = rng.uniform(0.0, 7.0, 8192).tolist() + [0.0, 0.3, 2.0 * np.pi]
    return exponents, roots


def load_gmm_kernel() -> Optional[Callable[..., None]]:
    """The motion assessor's ``repro_gmm_update``; ``None`` when unavailable.

    Unavailable when the shared object is (see :func:`load_kernel`), or
    when numpy's ``exp`` loop cannot be bound or the kernel's ``exp`` and
    square disagree with scalar ``np.exp`` and Python's ``x**2`` on a
    deterministic sample: the assessor then runs the Python update.
    """
    global _GMM, _GMM_ATTEMPTED
    if _GMM_ATTEMPTED:
        return _GMM
    _GMM_ATTEMPTED = True
    lib = load_kernel()
    if lib is None:
        return None
    lib.repro_bind_exp.restype = ctypes.c_int
    lib.repro_bind_exp.argtypes = [ctypes.c_void_p]
    for name in ("repro_probe_exp", "repro_probe_square"):
        probe = getattr(lib, name)
        probe.restype = None
        probe.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
    if not lib.repro_bind_exp(id(np.exp)):
        return None  # pragma: no cover - numpy without a d->d exp loop
    exponents, roots = probe_samples()
    if not (
        _probe(lib.repro_probe_exp, exponents, [float(np.exp(v)) for v in exponents])
        and _probe(lib.repro_probe_square, roots, [v**2 for v in roots])
    ):
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


def observe_dpar(noise) -> List[float]:
    """``repro_observe``'s parameter block for a
    :class:`~repro.radio.measurement.NoiseModel`."""
    return [
        noise.phase_noise_std_rad,
        noise.rss_noise_std_db,
        noise.phase_quantum_rad,
        noise.rss_quantum_db,
        TWO_PI,
    ]


class ObserveScratch:
    """Buffers and cached pointers of one scene's compiled observation
    pass (``repro_observe``), grown geometrically and reused every round.

    ``cols`` is the kernel's column block, in the order it reads them.
    """

    __slots__ = (
        "fn",
        "noise",
        "dpar",
        "cap",
        "tag",
        "z",
        "phase",
        "rss",
        "missing",
        "bases",
        "cols",
        "cols_ptr",
    )

    def __init__(self, fn) -> None:
        self.fn = fn
        self.noise = None
        self.dpar = np.empty(5)
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
        self.tag = np.empty(cap, dtype=np.int64)
        self.z = np.empty(2 * cap)
        self.phase = np.empty(cap)
        self.rss = np.empty(cap)
        self.missing = np.empty(cap, dtype=np.int64)
        self.bases = np.empty(2 * cap)
        arrays = (
            self.dpar, self.tag, self.z, self.phase, self.rss, self.missing,
            self.bases,
        )
        self.cols = (ctypes.c_void_p * len(arrays))(
            *(a.ctypes.data for a in arrays)
        )
        self.cols_ptr = ctypes.addressof(self.cols)

    def settle(self, rng, noise, tag_index, table_ptr, n_tags, resolve):
        """One round's (phase, RSS) columns: copies, in read order.

        The round's noise is drawn from ``rng`` into ``z`` (the stream of
        ``standard_normal(2k)``).  One kernel call gathers each read's
        bases from the table at ``table_ptr`` (row ``i`` holds tag ``i``'s
        bases, NaN when not cached) and settles those reads; ``resolve(j)``
        gives the bases of each read ``j`` it could not gather, and a
        second call settles just those.
        """
        k = len(tag_index)
        self.reserve(k)
        rng.standard_normal(out=self.z[: 2 * k])
        self.tag[:k] = tag_index
        if self.noise is not noise:
            self.bind(noise)
        n_missing = self.fn(self.cols_ptr, table_ptr, n_tags, k, 0)
        if n_missing:
            bases = self.bases
            for j in self.missing[:n_missing].tolist():
                bases[2 * j], bases[2 * j + 1] = resolve(j)
            self.fn(self.cols_ptr, table_ptr, n_tags, k, n_missing)
        return self.phase[:k].copy(), self.rss[:k].copy()


def settle_batch(
    fn, noise, phase_bases: List[float], rss_bases: List[float], z: List[float]
) -> Tuple[List[float], List[float]]:
    """Run ``repro_observe`` over one batch whose read ``i`` has bases
    ``(phase_bases[i], rss_bases[i])`` and draws ``z[2i], z[2i + 1]``.

    Even reads take their bases from the table and odd reads from the
    resolve pass, so one batch exercises both of the kernel's paths.
    """
    n = len(phase_bases)
    scratch = ObserveScratch(fn)
    scratch.reserve(n)
    scratch.bind(noise)
    scratch.tag[:n] = np.arange(n)
    scratch.z[: 2 * n] = z
    table = np.empty((n, 2))
    table[:, 0] = phase_bases
    table[:, 1] = rss_bases
    scratch.bases[: 2 * n] = table.ravel()
    table[1::2, 0] = np.nan  # odd reads: "no cached bases"
    n_missing = fn(scratch.cols_ptr, table.ctypes.data, n, n, 0)
    if n_missing:
        fn(scratch.cols_ptr, table.ctypes.data, n, n, n_missing)
    return scratch.phase[:n].tolist(), scratch.rss[:n].tolist()


#: One probe batch: noise model, phase bases, RSS bases, draws.
ProbeBatch = Tuple[object, List[float], List[float], List[float]]


def observe_probe_samples() -> List[ProbeBatch]:
    """The load-time probe of ``repro_observe``: ``(noise, phase bases,
    RSS bases, z)`` batches.

    With unit noise and zero draws the bases reach the quantiser as they
    are.  Half-unit quanta make exact ties at .5 of a quantum on both
    sides of zero; the crafted bases also hold quotients that round to a
    signed zero, negative phases that wrap up a period and, unquantised,
    exact multiples of 2*pi on both sides.  A random batch at the default
    noise model follows.
    """
    from repro.radio.measurement import NoiseModel

    ties = [k * 0.5 + 0.25 for k in range(-6, 6)]  # x / 0.5 = k + 0.5
    signed_zeros = [-0.0, 0.0, -0.1, 0.1, -1e-300]
    wraps = [-0.3, -3.0, -TWO_PI - 0.1, -3.0 * TWO_PI + 0.5]
    multiples = [m * TWO_PI for m in (-3, -2, -1, 1, 2, 3)]
    crafted = ties + signed_zeros + wraps + multiples
    no_draws = [0.0] * (2 * len(crafted))
    rng = np.random.default_rng(2017)
    n = 512
    return [
        (
            NoiseModel(
                phase_noise_std_rad=1.0,
                rss_noise_std_db=1.0,
                phase_quantum_rad=0.5,
                rss_quantum_db=0.5,
            ),
            crafted,
            crafted,
            no_draws,
        ),
        (
            NoiseModel(
                phase_noise_std_rad=1.0,
                rss_noise_std_db=1.0,
                phase_quantum_rad=0.0,
                rss_quantum_db=0.0,
            ),
            crafted,
            crafted,
            no_draws,
        ),
        (
            NoiseModel(),
            rng.uniform(-7.0, 20.0, n).tolist(),
            rng.uniform(-90.0, -20.0, n).tolist(),
            rng.standard_normal(2 * n).tolist(),
        ),
    ]


def load_observe_kernel() -> Optional[Callable[..., int]]:
    """The scene's ``repro_observe``; ``None`` when unavailable.

    Unavailable when the shared object is (see :func:`load_kernel`), or
    when the kernel disagrees, in any bit (the sign of a zero included),
    with :func:`repro.radio.measurement.settle_report` on
    :func:`observe_probe_samples`: the scene then runs its Python loop.
    """
    global _OBSERVE, _OBSERVE_ATTEMPTED
    if _OBSERVE_ATTEMPTED:
        return _OBSERVE
    _OBSERVE_ATTEMPTED = True
    lib = load_kernel()
    if lib is None:
        return None
    from repro.radio.measurement import settle_report

    fn = lib.repro_observe
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ctypes.c_void_p,  # cols
        ctypes.c_void_p,  # table
        ctypes.c_int64,  # n_tags
        ctypes.c_int64,  # n
        ctypes.c_int64,  # n_resolve
    ]
    for noise, phase_bases, rss_bases, z in observe_probe_samples():
        got = settle_batch(fn, noise, phase_bases, rss_bases, z)
        want = zip(*(
            settle_report(pb, rb, z[2 * i], z[2 * i + 1], noise)
            for i, (pb, rb) in enumerate(zip(phase_bases, rss_bases))
        ))
        if [[v.hex() for v in col] for col in got] != [
            [v.hex() for v in col] for col in want
        ]:
            return None  # pragma: no cover - platform-dependent rounding
    _OBSERVE = fn
    return _OBSERVE
