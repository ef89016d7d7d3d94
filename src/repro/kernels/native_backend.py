"""Native (C via ctypes) kernel backend.

A line-for-line translation of :mod:`._loops` compiled on demand with the
system C compiler (``$CC`` or ``cc``).  Two structural differences:
every bin-major fill's body is a ``static`` function that only
``probe_scan`` calls, on scratch arrays it takes from the caller
(:mod:`._loops` splits off only First-Fit's and the 2-D walk's; no fill
is exported); and ``probe_scan`` takes its table as
one ``probe_table_t`` struct of dimensions and data pointers, built once
per engine by :meth:`_NativeKernels.bind_probe_table` from a
:class:`~.api.ProbeTable` that owns every array it points into, scratch
included, so the probe allocates nothing.  Compilation happens once per
source revision: the shared object is cached under
``$REPRO_NATIVE_CACHE`` (default ``~/.cache/repro-kernels``) keyed by a
hash of the source, the compiler flags *and* the compiler identity
(``cc --version``), so neither a loop edit nor a compiler upgrade can
ever load a stale shared object.

No ``-ffast-math``, and ``-ffp-contract=off`` so no ``a * b + c`` is
fused into one rounding on FMA targets: the kernels run strict IEEE
float64 in the same operation order as the other backends, keeping
placements, loads and yields bit-identical (asserted by the
cross-backend equivalence tests).
"""

from __future__ import annotations

import ctypes
import hashlib
import operator
import os
import shlex
import subprocess
import tempfile
from typing import Iterator

import numpy as np

__all__ = ["load_native_kernels", "NativeBuildError"]

_C_KERNELS = r"""
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

#define CUT (-2)

/* Row i of out: per dimension, the least demand at positions i..n-1 of
   order; row n: +inf.  A NaN demand makes every row up to it NaN. */
static void suffix_minima(const double *item_agg, const int64_t *order,
                          int64_t n, int64_t D, double *out)
{
    for (int64_t d = 0; d < D; d++) out[n*D+d] = INFINITY;
    for (int64_t i = n - 1; i >= 0; i--) {
        int64_t j = order[i];
        for (int64_t d = 0; d < D; d++) {
            double v = item_agg[j*D+d], m = out[(i+1)*D+d];
            out[i*D+d] = (v < m || v != v) ? v : m;
        }
    }
}

/* The four fill bodies below run only inside probe_scan, on scratch
   from its bound table (work_i: FF pending, or PP cand, perm, rank and
   w <= D keys; work_f: FF load or PP key, then the waste; dead).  With
   that one caller GCC -O2 would inline all four into probe_scan and
   triple its machine code; noinline keeps each body its own function. */
static __attribute__((noinline))
int64_t ff_run(int64_t J, int64_t H, int64_t NB, int64_t D,
               const double *item_agg, const uint8_t *elem_ok,
               const uint8_t *bin_ok, const int64_t *item_order,
               const double *item_min, const int64_t *bin_order,
               double *loads, double *load_sum,
               const double *cap_tol, const double *waste_limit,
               int64_t *assignment, int64_t *pending, double *load,
               double *waste, int64_t *scanned)
{
    int64_t first = 0;
    for (int64_t i = 0; i < J; i++) pending[i] = i;
    for (int64_t d = 0; d < D; d++) waste[d] = 0.0;
    for (int64_t bi = 0; bi < NB; bi++) {
        if (first == J) break;
        for (int64_t d = 0; d < D; d++)
            if (waste[d] > waste_limit[d]) return CUT;
        int64_t h = bin_order[bi];
        if (!bin_ok[h]) continue;  /* idle: its capacity is off the limit */
        for (int64_t d = 0; d < D; d++) load[d] = loads[h*D+d];
        int64_t ntaken = 0, nrest = 0, tested = 0;
        for (int64_t i = first; i < J; i++) {
            int64_t p = pending[i];
            tested++;
            int stop = 0;
            for (int64_t d = 0; d < D; d++) {
                if (load[d] + item_min[p*D+d] > cap_tol[h*D+d]) {
                    stop = 1;
                    break;
                }
            }
            if (stop) break;
            int64_t j = item_order[p];
            int ok = elem_ok[j*H+h];
            if (ok) {
                for (int64_t d = 0; d < D; d++) {
                    if (load[d] + item_agg[j*D+d] > cap_tol[h*D+d]) {
                        ok = 0;
                        break;
                    }
                }
            }
            if (ok) {
                for (int64_t d = 0; d < D; d++) load[d] += item_agg[j*D+d];
                assignment[j] = h;
                ntaken++;
            } else {
                pending[first + nrest++] = p;
            }
        }
        *scanned += tested;
        if (ntaken > 0) {
            while (nrest > 0) {  /* the kept entries meet the untested rest */
                nrest--;
                pending[first + ntaken + nrest] = pending[first + nrest];
            }
            first += ntaken;
            double s = 0.0;
            for (int64_t d = 0; d < D; d++) {
                loads[h*D+d] = load[d];
                s += load[d];
            }
            load_sum[h] = s;
        }
        for (int64_t d = 0; d < D; d++) waste[d] += cap_tol[h*D+d] - load[d];
    }
    return J - first;
}

static __attribute__((noinline))
int64_t bf_pack(int64_t J, int64_t H, int64_t D,
                const double *item_agg, const double *item_agg_sum,
                const uint8_t *elem_ok, const int64_t *item_order,
                double *loads, double *load_sum,
                const double *cap_tol, const double *bin_agg_sum,
                int64_t by_remaining, int64_t *assignment)
{
    for (int64_t ii = 0; ii < J; ii++) {
        int64_t j = item_order[ii];
        int64_t best_h = -1;
        double best_score = INFINITY;
        for (int64_t h = 0; h < H; h++) {
            if (!elem_ok[j*H+h]) continue;
            int ok = 1;
            for (int64_t d = 0; d < D; d++) {
                if (loads[h*D+d] + item_agg[j*D+d] > cap_tol[h*D+d]) {
                    ok = 0;
                    break;
                }
            }
            if (!ok) continue;
            double score = by_remaining ? bin_agg_sum[h] - load_sum[h]
                                        : -load_sum[h];
            if (score < best_score) {
                best_score = score;
                best_h = h;
            }
        }
        if (best_h < 0) return 0;
        for (int64_t d = 0; d < D; d++)
            loads[best_h*D+d] += item_agg[j*D+d];
        load_sum[best_h] += item_agg_sum[j];
        assignment[j] = best_h;
    }
    return 1;
}

static __attribute__((noinline))
int64_t pp_2d_run(int64_t J, int64_t H, int64_t NB,
                  const double *item_agg, const uint8_t *elem_ok,
                  const uint8_t *bin_ok,
                  const int64_t *order0, const int64_t *order1,
                  const double *min0, const double *min1,
                  const int64_t *bin_order,
                  double *loads, double *load_sum,
                  const double *cap_tol, const double *bin_agg,
                  int64_t by_remaining, const double *waste_limit,
                  int64_t *assignment, uint8_t *dead,
                  int64_t *scanned)
{
    int64_t unplaced = 0, visited = 0, s0 = 0, s1 = 0;
    for (int64_t j = 0; j < J; j++)
        if (assignment[j] < 0) unplaced++;
    double w0 = 0.0, w1 = 0.0;
    for (int64_t bi = 0; bi < NB; bi++) {
        if (unplaced == 0) break;
        if (w0 > waste_limit[0] || w1 > waste_limit[1]) {
            *scanned += visited;
            return CUT;
        }
        int64_t h = bin_order[bi];
        if (!bin_ok[h]) continue;  /* idle: its capacity is off the limit */
        /* An item is unplaced, so both marks stop before J. */
        while (assignment[order0[s0]] >= 0) s0++;
        while (assignment[order1[s1]] >= 0) s1++;
        double l0 = loads[h*2+0], l1 = loads[h*2+1];
        double c0 = cap_tol[h*2+0], c1 = cap_tol[h*2+1];
        double b0 = 0.0, b1 = 0.0;
        if (by_remaining) { b0 = bin_agg[h*2+0]; b1 = bin_agg[h*2+1]; }
        double k0 = l0 - b0, k1 = l1 - b1;
        int64_t p0 = s0, p1 = s1, ntaken = 0;
        for (int64_t j = 0; j < J; j++) dead[j] = 0;
        for (;;) {
            int64_t sel = -1;
            if (k0 <= k1) {
                int64_t p = p0;
                while (p < J) {
                    visited++;
                    if (l0 + min0[p*2+0] > c0 || l1 + min0[p*2+1] > c1) {
                        p = J;
                        break;
                    }
                    int64_t j = order0[p];
                    if (assignment[j] >= 0 || dead[j]) { p++; continue; }
                    if (elem_ok[j*H+h]
                            && l0 + item_agg[j*2+0] <= c0
                            && l1 + item_agg[j*2+1] <= c1) {
                        sel = j;
                        break;
                    }
                    dead[j] = 1;
                    p++;
                }
                p0 = p;
            } else {
                int64_t p = p1;
                while (p < J) {
                    visited++;
                    if (l0 + min1[p*2+0] > c0 || l1 + min1[p*2+1] > c1) {
                        p = J;
                        break;
                    }
                    int64_t j = order1[p];
                    if (assignment[j] >= 0 || dead[j]) { p++; continue; }
                    if (elem_ok[j*H+h]
                            && l0 + item_agg[j*2+0] <= c0
                            && l1 + item_agg[j*2+1] <= c1) {
                        sel = j;
                        break;
                    }
                    dead[j] = 1;
                    p++;
                }
                p1 = p;
            }
            if (sel < 0) break;
            assignment[sel] = h;
            l0 += item_agg[sel*2+0];
            l1 += item_agg[sel*2+1];
            k0 = l0 - b0;
            k1 = l1 - b1;
            ntaken++;
            unplaced--;
            if (unplaced == 0) break;
        }
        if (ntaken > 0) {
            loads[h*2+0] = l0;
            loads[h*2+1] = l1;
            load_sum[h] = l0 + l1;
        }
        w0 += c0 - l0;
        w1 += c1 - l1;
    }
    *scanned += visited;
    return unplaced;
}

static __attribute__((noinline))
int64_t pp_general_run(int64_t J, int64_t H, int64_t NB, int64_t D,
                       int64_t w, int64_t choose_pack,
                       const double *item_agg, const double *item_agg_sum,
                       const uint8_t *elem_ok, const uint8_t *bin_ok,
                       const int64_t *item_dim_perm,
                       const int64_t *tie_rank, const int64_t *bin_order,
                       double *loads, double *load_sum,
                       const double *cap_tol, const double *bin_agg,
                       int64_t by_remaining, const double *waste_limit,
                       int64_t *assignment, int64_t *iscr, double *fscr,
                       uint8_t *dead)
{
    int64_t unplaced = 0;
    int64_t *cand = iscr, *perm = iscr + J, *rank = iscr + J + D;
    int64_t *keys = iscr + J + 2*D;
    double *key = fscr, *waste = fscr + D;
    for (int64_t j = 0; j < J; j++)
        if (assignment[j] < 0) unplaced++;
    for (int64_t d = 0; d < D; d++) waste[d] = 0.0;
    for (int64_t bi = 0; bi < NB; bi++) {
        if (unplaced == 0) break;
        for (int64_t d = 0; d < D; d++)
            if (waste[d] > waste_limit[d]) return CUT;
        int64_t h = bin_order[bi];
        if (!bin_ok[h]) continue;  /* idle: its capacity is off the limit */
        int64_t K = 0;
        for (int64_t j = 0; j < J; j++) {
            if (assignment[j] >= 0 || !elem_ok[j*H+h]) continue;
            int fit = 1;
            for (int64_t d = 0; d < D; d++) {
                if (item_agg[j*D+d] > cap_tol[h*D+d] - loads[h*D+d]) {
                    fit = 0;
                    break;
                }
            }
            if (fit) {
                cand[K] = j;
                dead[K] = 0;
                K++;
            }
        }
        int64_t nlive = K;
        while (nlive > 0) {
            if (by_remaining) {
                for (int64_t d = 0; d < D; d++)
                    key[d] = -(bin_agg[h*D+d] - loads[h*D+d]);
            } else {
                for (int64_t d = 0; d < D; d++)
                    key[d] = loads[h*D+d];
            }
            for (int64_t d = 0; d < D; d++) perm[d] = d;
            for (int64_t a = 1; a < D; a++) {
                int64_t pj = perm[a];
                double kv = key[pj];
                int64_t b = a - 1;
                while (b >= 0 && key[perm[b]] > kv) {
                    perm[b+1] = perm[b];
                    b--;
                }
                perm[b+1] = pj;
            }
            for (int64_t d = 0; d < D; d++) rank[perm[d]] = d;
            int64_t sel = -1;
            int64_t best_code = 0;
            for (int64_t q = 0; q < K; q++) {
                if (dead[q]) continue;
                int64_t j = cand[q];
                for (int64_t c = 0; c < w; c++)
                    keys[c] = rank[item_dim_perm[j*D+c]];
                if (choose_pack && w > 1) {
                    for (int64_t a = 1; a < w; a++) {
                        int64_t kv = keys[a];
                        int64_t b = a - 1;
                        while (b >= 0 && keys[b] > kv) {
                            keys[b+1] = keys[b];
                            b--;
                        }
                        keys[b+1] = kv;
                    }
                }
                int64_t code = keys[0];
                for (int64_t c = 1; c < w; c++)
                    code = code * D + keys[c];
                code = code * (J + 1) + tie_rank[j];
                if (sel < 0 || code < best_code) {
                    best_code = code;
                    sel = q;
                }
            }
            if (sel < 0) break;
            int64_t j = cand[sel];
            for (int64_t d = 0; d < D; d++)
                loads[h*D+d] += item_agg[j*D+d];
            load_sum[h] += item_agg_sum[j];
            assignment[j] = h;
            dead[sel] = 1;
            nlive--;
            unplaced--;
            if (unplaced == 0) break;
            for (int64_t q = 0; q < K; q++) {
                if (dead[q]) continue;
                int64_t jj = cand[q];
                for (int64_t d = 0; d < D; d++) {
                    if (item_agg[jj*D+d] > cap_tol[h*D+d] - loads[h*D+d]) {
                        dead[q] = 1;
                        nlive--;
                        break;
                    }
                }
            }
        }
        for (int64_t d = 0; d < D; d++)
            waste[d] += cap_tol[h*D+d] - loads[h*D+d];
    }
    return unplaced;
}

/* J items' thresholds against H bins, row j at out + j*H.  Dimensions
   run outermost per item, so each need divides a whole row; every
   (j, h) still meets d in order, so it keeps the minimum the per-pair
   loop keeps.  A need of 0 or less gives +inf (no change) or, unless
   the slack is >= 0, -inf. */
int64_t affine_fit_thresholds(int64_t J, int64_t H, int64_t D,
                              const double *req, const double *need,
                              const double *cap, double *out)
{
    for (int64_t j = 0; j < J; j++) {
        double *m = out + j*H;
        for (int64_t h = 0; h < H; h++) m[h] = INFINITY;
        for (int64_t d = 0; d < D; d++) {
            double r = req[j*D+d];
            double nd = need[j*D+d];
            if (nd > 0) {
                for (int64_t h = 0; h < H; h++) {
                    double t = (cap[h*D+d] - r) / nd;
                    if (t < m[h]) m[h] = t;
                }
            } else {
                for (int64_t h = 0; h < H; h++)
                    if (!(cap[h*D+d] - r >= 0)) m[h] = -INFINITY;
            }
        }
    }
    return 0;
}

int64_t incremental_best_fit(int64_t K, int64_t H, int64_t D,
                             const double *req_agg, const uint8_t *elem_fit,
                             double *loads, const double *agg,
                             const double *cap_tol, int64_t *out)
{
    int64_t placed = 0;
    for (int64_t i = 0; i < K; i++) {
        int64_t best_h = -1;
        double best_rem = INFINITY;
        for (int64_t h = 0; h < H; h++) {
            if (!elem_fit[i*H+h]) continue;
            int ok = 1;
            for (int64_t d = 0; d < D; d++) {
                if (loads[h*D+d] + req_agg[i*D+d] > cap_tol[h*D+d]) {
                    ok = 0;
                    break;
                }
            }
            if (!ok) continue;
            double rem = 0.0;
            for (int64_t d = 0; d < D; d++)
                rem += agg[h*D+d] - loads[h*D+d];
            if (rem < best_rem) {
                best_rem = rem;
                best_h = h;
            }
        }
        out[i] = best_h;
        if (best_h >= 0) {
            placed++;
            for (int64_t d = 0; d < D; d++)
                loads[best_h*D+d] += req_agg[i*D+d];
        }
    }
    return placed;
}

/* numpy's pairwise summation order.  static: only this library calls it,
   so the calls go direct rather than through the PLT.  noipa keeps the
   callers' machine code that of a call to an exported function: with
   noinline alone GCC -O2 lets each caller keep values in the registers
   this body leaves alone, and three callers' code changes.  (Compilers
   without noipa still get noinline.) */
static __attribute__((noinline, noipa))
double pairwise_sum(const double *buf, int64_t n,
                    int64_t *frames, double *partial)
{
    int64_t nf = 1, nv = 0;
    frames[0] = 0;
    frames[1] = n;
    frames[2] = 0;
    while (nf > 0) {
        nf--;
        int64_t lo = frames[nf*3+0];
        int64_t m = frames[nf*3+1];
        if (frames[nf*3+2] == 1) {
            nv--;
            partial[nv-1] = partial[nv-1] + partial[nv];
        } else if (m > 128) {
            int64_t m2 = m / 2;
            m2 -= m2 % 8;
            frames[nf*3+2] = 1;
            nf++;
            frames[nf*3+0] = lo + m2;
            frames[nf*3+1] = m - m2;
            frames[nf*3+2] = 0;
            nf++;
            frames[nf*3+0] = lo;
            frames[nf*3+1] = m2;
            frames[nf*3+2] = 0;
            nf++;
        } else {
            double s;
            if (m < 8) {
                s = 0.0;
                for (int64_t i = 0; i < m; i++) s += buf[lo+i];
            } else {
                double r0 = buf[lo], r1 = buf[lo+1], r2 = buf[lo+2],
                       r3 = buf[lo+3], r4 = buf[lo+4], r5 = buf[lo+5],
                       r6 = buf[lo+6], r7 = buf[lo+7];
                int64_t i = 8;
                int64_t stop = m - m % 8;
                while (i < stop) {
                    r0 += buf[lo+i];
                    r1 += buf[lo+i+1];
                    r2 += buf[lo+i+2];
                    r3 += buf[lo+i+3];
                    r4 += buf[lo+i+4];
                    r5 += buf[lo+i+5];
                    r6 += buf[lo+i+6];
                    r7 += buf[lo+i+7];
                    i += 8;
                }
                s = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
                while (i < m) {
                    s += buf[lo+i];
                    i++;
                }
            }
            partial[nv++] = s;
        }
    }
    return 0.0 + partial[0];
}

int64_t greedy_scan(int64_t J, int64_t H, int64_t D, int64_t P,
                    const double *req_agg, const double *req_agg_sum,
                    const int64_t *need_dim, const int64_t *req_dim,
                    const uint8_t *elem_ok, const double *bin_agg,
                    const double *bin_agg_sum, const double *cap_tol,
                    const double *req_elem, const double *need_elem,
                    const double *need_agg, const double *bin_elem,
                    const int64_t *orders, const int64_t *pass_order,
                    const int64_t *pass_pick, double feas_atol,
                    double feas_rtol, int64_t *placements,
                    double *min_yields)
{
    double *loads = malloc((size_t)(H*D) * sizeof(double));
    double *buf = malloc((size_t)(J + D) * sizeof(double));
    int64_t *count = malloc((size_t)H * sizeof(int64_t));
    int64_t *start = malloc((size_t)H * sizeof(int64_t));
    int64_t *members = malloc((size_t)(J + 1) * sizeof(int64_t));
    double *col_req = malloc((size_t)D * sizeof(double));
    double *col_need = malloc((size_t)D * sizeof(double));
    int64_t frames[128*3];
    double partial[64];
    if (!loads || !buf || !count || !start || !members || !col_req
            || !col_need) {
        free(loads); free(buf); free(count); free(start); free(members);
        free(col_req); free(col_need);
        return -1;
    }
    double agg_scale = 1.0 + feas_rtol;
    int64_t feasible = 0;
    for (int64_t p = 0; p < P; p++) {
        int64_t pick = pass_pick[p];
        const int64_t *order = orders + pass_order[p]*J;
        int64_t *placement = placements + p*J;
        for (int64_t h = 0; h < H; h++)
            for (int64_t d = 0; d < D; d++) loads[h*D+d] = 0.0;
        for (int64_t j = 0; j < J; j++) placement[j] = -1;
        int placed = 1;
        for (int64_t i = 0; i < J; i++) {
            int64_t j = order[i];
            int64_t best = -1;
            double best_v = 0.0;
            for (int64_t h = 0; h < H; h++) {
                if (!elem_ok[j*H+h]) continue;
                int fits = 1;
                for (int64_t d = 0; d < D; d++) {
                    if (loads[h*D+d] + req_agg[j*D+d] > cap_tol[h*D+d]) {
                        fits = 0;
                        break;
                    }
                }
                if (!fits) continue;
                if (pick == 6) {
                    best = h;
                    break;
                }
                double v;
                if (pick == 0) {
                    v = bin_agg[h*D+need_dim[j]] - loads[h*D+need_dim[j]];
                } else if (pick == 2 || pick == 4) {
                    v = bin_agg[h*D+req_dim[j]] - loads[h*D+req_dim[j]];
                } else if (pick == 1) {
                    for (int64_t d = 0; d < D; d++) buf[d] = loads[h*D+d];
                    v = (pairwise_sum(buf, D, frames, partial)
                         + req_agg_sum[j]) / bin_agg_sum[h];
                } else {
                    for (int64_t d = 0; d < D; d++)
                        buf[d] = bin_agg[h*D+d] - loads[h*D+d];
                    v = pairwise_sum(buf, D, frames, partial);
                }
                if (v != v) {
                    best = h;
                    break;
                }
                if (best < 0) {
                    best = h;
                    best_v = v;
                } else if (pick == 0 || pick == 4 || pick == 5) {
                    if (v > best_v) {
                        best = h;
                        best_v = v;
                    }
                } else if (v < best_v) {
                    best = h;
                    best_v = v;
                }
            }
            if (best < 0) {
                placed = 0;
                break;
            }
            for (int64_t d = 0; d < D; d++)
                loads[best*D+d] += req_agg[j*D+d];
            placement[j] = best;
        }
        if (!placed) {
            for (int64_t j = 0; j < J; j++) placement[j] = -1;
            min_yields[p] = -INFINITY;
            continue;
        }
        feasible++;
        for (int64_t h = 0; h < H; h++) count[h] = 0;
        for (int64_t j = 0; j < J; j++) count[placement[j]]++;
        int64_t s = 0;
        for (int64_t h = 0; h < H; h++) {
            start[h] = s;
            s += count[h];
            count[h] = 0;
        }
        for (int64_t j = 0; j < J; j++) {
            int64_t h = placement[j];
            members[start[h] + count[h]] = j;
            count[h]++;
        }
        double y_min = INFINITY;
        for (int64_t h = 0; h < H; h++) {
            int64_t K = count[h];
            if (K == 0) continue;
            int64_t base = start[h];
            if (D == 1) {
                for (int64_t q = 0; q < K; q++)
                    buf[q] = req_agg[members[base+q]];
                col_req[0] = pairwise_sum(buf, K, frames, partial);
                for (int64_t q = 0; q < K; q++)
                    buf[q] = need_agg[members[base+q]];
                col_need[0] = pairwise_sum(buf, K, frames, partial);
            } else {
                for (int64_t d = 0; d < D; d++) {
                    col_req[d] = 0.0;
                    col_need[d] = 0.0;
                }
                for (int64_t q = 0; q < K; q++) {
                    int64_t j = members[base+q];
                    for (int64_t d = 0; d < D; d++) {
                        col_req[d] += req_agg[j*D+d];
                        col_need[d] += need_agg[j*D+d];
                    }
                }
            }
            int ok = 1;
            for (int64_t q = 0; q < K; q++) {
                int64_t j = members[base+q];
                for (int64_t d = 0; d < D; d++)
                    if (req_elem[j*D+d] > bin_elem[h*D+d] + feas_atol) ok = 0;
            }
            for (int64_t d = 0; d < D; d++)
                if (col_req[d] > bin_agg[h*D+d] * agg_scale + feas_atol)
                    ok = 0;
            double y = 0.0;
            if (ok) {
                y = 1.0;
                for (int64_t q = 0; q < K; q++) {
                    int64_t j = members[base+q];
                    for (int64_t d = 0; d < D; d++) {
                        double nd = need_elem[j*D+d];
                        if (nd > 0) {
                            double t = (bin_elem[h*D+d] - req_elem[j*D+d]) / nd;
                            if (t < y) y = t;
                        }
                    }
                }
                for (int64_t d = 0; d < D; d++) {
                    if (col_need[d] > 0) {
                        double t = (bin_agg[h*D+d] - col_req[d]) / col_need[d];
                        if (t < y) y = t;
                    }
                }
                if (!(y > 0.0)) y = 0.0;
            }
            if (y < y_min) y_min = y;
        }
        min_yields[p] = y_min;
    }
    free(loads); free(buf); free(count); free(start); free(members);
    free(col_req); free(col_need);
    return feasible;
}

static void share_rounds(int64_t K, const double *dem, const double *wts,
                         double capacity, double epsilon, double share_atol,
                         double *buf, double *cons, uint8_t *unsat,
                         int64_t *frames, double *partial)
{
    int64_t left = K;
    for (int64_t q = 0; q < K; q++) unsat[q] = 1;
    double pool = capacity;
    while (pool > epsilon && left > 0) {
        double wmax = -INFINITY;
        for (int64_t q = 0; q < K; q++) {
            if (unsat[q]) {
                double v = wts[q];
                if (v > wmax || v != v) wmax = v;
            }
        }
        int64_t n = 0;
        for (int64_t q = 0; q < K; q++) {
            if (unsat[q]) {
                if (wmax <= 0.0) buf[n] = 1.0;
                else buf[n] = wts[q] / wmax;
                n++;
            }
        }
        double wsum = pairwise_sum(buf, n, frames, partial);
        n = 0;
        int64_t done = 0;
        for (int64_t q = 0; q < K; q++) {
            if (unsat[q]) {
                double share = pool * (buf[n] / wsum);
                double need_left = dem[q] - cons[q];
                double take = share;
                if (need_left <= share + share_atol) {
                    take = need_left;
                    unsat[q] = 0;
                    done++;
                }
                cons[q] += take;
                buf[n] = take;
                n++;
            }
        }
        if (done == 0) {
            pool = 0.0;
            break;
        }
        pool = pool - pairwise_sum(buf, n, frames, partial);
        left -= done;
    }
    for (int64_t q = 0; q < K; q++) {
        double c = cons[q];
        if (!(c < dem[q] || c != c)) c = dem[q];
        cons[q] = c;
    }
}

int64_t share_nodes(int64_t H, const int64_t *order, const int64_t *counts,
                    const double *req, const double *need,
                    const double *est_need, const double *elem_req,
                    const double *elem_need, const double *node_agg,
                    const double *node_elem, int64_t policy, double epsilon,
                    double share_atol, double *yields, double *buf,
                    double *dem, double *wts, double *cons, uint8_t *unsat,
                    int64_t *frames, double *partial)
{
    int64_t base = 0;
    for (int64_t h = 0; h < H; h++) {
        int64_t K = counts[h];
        if (K == 0) continue;
        for (int64_t q = 0; q < K; q++) buf[q] = req[order[base+q]];
        double capacity = node_agg[h] - pairwise_sum(buf, K, frames, partial);
        if (0.0 > capacity) capacity = 0.0;
        for (int64_t q = 0; q < K; q++) {
            int64_t j = order[base+q];
            double y_cap = 1.0;
            if (elem_need[j] > 0) {
                double room = node_elem[h] - elem_req[j];
                if (!(room > 0.0 || room != room)) room = 0.0;
                y_cap = room / elem_need[j];
            }
            if (!(y_cap < 1.0 || y_cap != y_cap)) y_cap = 1.0;
            double useful = y_cap * need[j];
            double d = need[j];
            if (!(d < useful || d != d)) d = useful;
            dem[q] = d;
        }
        if (policy == 2) {
            for (int64_t q = 0; q < K; q++) wts[q] = 1.0;
        } else {
            for (int64_t q = 0; q < K; q++) buf[q] = est_need[order[base+q]];
            double total = pairwise_sum(buf, K, frames, partial);
            if (total <= 0) {
                for (int64_t q = 0; q < K; q++) wts[q] = 0.0;
            } else {
                double y_hat = capacity / total;
                if (!(y_hat < 1.0)) y_hat = 1.0;
                for (int64_t q = 0; q < K; q++)
                    wts[q] = y_hat * est_need[order[base+q]];
            }
        }
        if (policy == 0) {
            for (int64_t q = 0; q < K; q++) {
                double c = wts[q];
                if (!(c < dem[q] || c != c)) c = dem[q];
                cons[q] = c;
            }
        } else {
            for (int64_t q = 0; q < K; q++) cons[q] = 0.0;
            if (!(capacity <= 0.0)) {
                for (int64_t q = 0; q < K; q++) buf[q] = dem[q];
                if (pairwise_sum(buf, K, frames, partial) <= capacity) {
                    for (int64_t q = 0; q < K; q++) cons[q] = dem[q];
                } else {
                    share_rounds(K, dem, wts, capacity, epsilon, share_atol,
                                 buf, cons, unsat, frames, partial);
                }
            }
        }
        for (int64_t q = 0; q < K; q++) {
            int64_t j = order[base+q];
            double y = 1.0;
            if (need[j] > 0) {
                y = cons[q] / need[j];
                if (y < 0.0) y = 0.0;
                else if (y > 1.0) y = 1.0;
            }
            yields[j] = y;
        }
        base += K;
    }
    return 0;
}
"""

#: The fused probe's bound table as one C struct, in member order:
#: ``(name, C type)``.  Every name is a :class:`~.api.ProbeTable`
#: attribute; the C typedef and its ctypes mirror are both generated from
#: this list, so they cannot drift apart.
_TABLE_FIELDS = (
    *((dim, "int64_t") for dim in ("J", "H", "D", "S", "SI", "SB", "NC")),
    ("waste_rtol", "double"),
    *((name, "const double *") for name in (
        "req_agg", "need_agg", "y_elem_max", "cap_tol", "cap_tol_total",
        "bin_agg", "bin_agg_sum")),
    *((name, "const int64_t *") for name in (
        "bin_orders", "sort_metric", "sort_desc", "st_packer", "st_item",
        "st_bin", "st_hetero", "st_w", "st_choose", "st_cfg", "cfg_w",
        "cfg_choose", "cfg_item")),
    *((name, "double *") for name in (
        "item_agg", "item_agg_sum", "waste_limit", "loads", "load_sum",
        "sort_key", "work_f", "partial", "item_min", "walk_min")),
    *((name, "int64_t *") for name in (
        "item_orders", "tie_ranks", "item_dim_perm", "pp_order0",
        "pp_order1", "sort_tmp", "work_i", "frames", "cut_runs",
        "scanned")),
    *((name, "uint8_t *") for name in ("elem_ok", "bin_ok", "built",
                                       "dead")),
)

#: Each member's name and whether it is a data pointer.
_TABLE_MEMBERS = tuple((name, ctype.endswith("*"))
                       for name, ctype in _TABLE_FIELDS)

_TABLE_TYPEDEF = "typedef struct {\n%s} probe_table_t;\n" % "".join(
    f"    {ctype}{'' if ctype.endswith('*') else ' '}{name};\n"
    for name, ctype in _TABLE_FIELDS)

_C_PROBE = r"""
/* numpy's sort order on float64: NaN after every number. */
static int lt(double a, double b)
{
    return a < b || (b != b && a == a);
}

static int64_t probe_inputs(const probe_table_t *t, double y)
{
    int64_t J = t->J, H = t->H, D = t->D;
    for (int64_t h = 0; h < H; h++) t->bin_ok[h] = 0;
    for (int64_t j = 0; j < J; j++) {
        for (int64_t d = 0; d < D; d++)
            t->item_agg[j*D+d] = t->req_agg[j*D+d] + y * t->need_agg[j*D+d];
        t->item_agg_sum[j] = pairwise_sum(t->item_agg + j*D, D, t->frames,
                                          t->partial);
        for (int64_t h = 0; h < H; h++) {
            uint8_t ok = t->y_elem_max[j*H+h] >= y;
            t->elem_ok[j*H+h] = ok;
            t->bin_ok[h] |= ok;
        }
    }
    if (D == 1) {
        t->waste_limit[0] = pairwise_sum(t->item_agg, J, t->frames,
                                         t->partial);
    } else {
        for (int64_t d = 0; d < D; d++) t->waste_limit[d] = 0.0;
        for (int64_t j = 0; j < J; j++)
            for (int64_t d = 0; d < D; d++)
                t->waste_limit[d] += t->item_agg[j*D+d];
    }
    for (int64_t d = 0; d < D; d++) {
        double total = t->waste_limit[d];
        t->waste_limit[d] = t->cap_tol_total[d] - total
                            + t->waste_rtol * (t->cap_tol_total[d] + total);
    }
    for (int64_t h = 0; h < H; h++)
        if (!t->bin_ok[h])
            for (int64_t d = 0; d < D; d++)
                t->waste_limit[d] -= t->cap_tol[h*D+d];
    for (int64_t i = 0; i < t->SI + 1 + t->NC; i++) t->built[i] = 0;
    return 0;
}

static double sort_value(const probe_table_t *t, int64_t j, int64_t metric)
{
    if (metric == 1) return t->item_agg_sum[j];
    double hi = t->item_agg[j*t->D], lo = hi;
    for (int64_t d = 1; d < t->D; d++) {
        double v = t->item_agg[j*t->D+d];
        if (!(hi >= v || hi != hi)) hi = v;
        if (!(lo <= v || lo != lo)) lo = v;
    }
    if (metric == 0) return hi;
    if (metric == 3) return hi - lo;
    if (lo > 0) return hi / lo;
    if (lo == 0 && hi > 0) return INFINITY;
    return 1.0;
}

static int sorts_before(const probe_table_t *t, int64_t a, int64_t b,
                        int lex, int desc)
{
    if (!lex) return lt(t->sort_key[a], t->sort_key[b]);
    for (int64_t d = 0; d < t->D; d++) {
        double u = t->item_agg[a*t->D+d], v = t->item_agg[b*t->D+d];
        if (desc) {
            u = -u;
            v = -v;
        }
        if (lt(u, v)) return 1;
        if (lt(v, u)) return 0;
    }
    return 0;
}

static void build_item_order(const probe_table_t *t, int64_t r)
{
    int64_t J = t->J;
    int64_t metric = t->sort_metric[r];
    int desc = t->sort_desc[r] != 0;
    int64_t *order = t->item_orders + r*J;
    for (int64_t j = 0; j < J; j++) order[j] = j;
    if (metric != 5) {
        int lex = metric == 4;
        if (!lex) {
            for (int64_t j = 0; j < J; j++) {
                double v = sort_value(t, j, metric);
                t->sort_key[j] = desc ? -v : v;
            }
        }
        int64_t *src = order, *dst = t->sort_tmp;
        for (int64_t width = 1; width < J; width *= 2) {
            int64_t lo = 0;
            while (lo < J) {
                int64_t mid = lo + width < J ? lo + width : J;
                int64_t hi = lo + 2*width < J ? lo + 2*width : J;
                int64_t a = lo, b = mid, k = lo;
                while (a < mid && b < hi) {
                    if (sorts_before(t, src[b], src[a], lex, desc))
                        dst[k++] = src[b++];
                    else
                        dst[k++] = src[a++];
                }
                while (a < mid) dst[k++] = src[a++];
                while (b < hi) dst[k++] = src[b++];
                lo = hi;
            }
            int64_t *tmp = src;
            src = dst;
            dst = tmp;
        }
        if (src != order)
            for (int64_t i = 0; i < J; i++) order[i] = src[i];
    }
    for (int64_t i = 0; i < J; i++) t->tie_ranks[r*J+order[i]] = i;
    suffix_minima(t->item_agg, order, J, t->D, t->item_min + r*(J+1)*t->D);
    t->built[r] = 1;
}

static void build_dim_perm(const probe_table_t *t)
{
    int64_t D = t->D;
    for (int64_t j = 0; j < t->J; j++) {
        int64_t *perm = t->item_dim_perm + j*D;
        const double *row = t->item_agg + j*D;
        for (int64_t d = 0; d < D; d++) perm[d] = d;
        for (int64_t a = 1; a < D; a++) {
            int64_t pd = perm[a];
            double kv = -row[pd];
            int64_t b = a - 1;
            while (b >= 0 && lt(kv, -row[perm[b]])) {
                perm[b+1] = perm[b];
                b--;
            }
            perm[b+1] = pd;
        }
    }
    t->built[t->SI] = 1;
}

static void build_walk_orders(const probe_table_t *t, int64_t c)
{
    int64_t J = t->J;
    int64_t w = t->cfg_w[c];
    int choose = t->cfg_choose[c] != 0;
    int64_t r = t->cfg_item[c];
    if (!t->built[r]) build_item_order(t, r);
    const int64_t *order = t->item_orders + r*J;
    int64_t *digit = t->sort_tmp;
    for (int64_t k = 0; k < 2; k++) {
        int64_t *walk = (k == 0 ? t->pp_order0 : t->pp_order1) + c*J;
        for (int64_t i = 0; i < J; i++) {
            int64_t j = order[i];
            int64_t k0 = t->item_dim_perm[j*2];
            if (k == 1) k0 = 1 - k0;
            if (w == 1) {
                digit[i] = k0;
            } else {
                int64_t k1 = t->item_dim_perm[j*2+1];
                if (k == 1) k1 = 1 - k1;
                if (choose && k1 < k0) {
                    int64_t tmp = k0;
                    k0 = k1;
                    k1 = tmp;
                }
                digit[i] = 2*k0 + k1;
            }
        }
        int64_t n = 0;
        for (int64_t v = 0; v < (w == 1 ? 2 : 4); v++)
            for (int64_t i = 0; i < J; i++)
                if (digit[i] == v) walk[n++] = order[i];
        suffix_minima(t->item_agg, walk, J, 2,
                      t->walk_min + (c*2+k)*(J+1)*2);
    }
    t->built[t->SI+1+c] = 1;
}

int64_t probe_scan(const probe_table_t *t, double y, const int64_t *scan,
                   int64_t S, int64_t *assignment)
{
    int64_t J = t->J, H = t->H, D = t->D;
    probe_inputs(t, y);
    t->cut_runs[0] = 0;
    t->scanned[0] = 0;
    for (int64_t d = 0; d < D; d++) {
        if (t->waste_limit[d] < 0) {  /* the busy bins cannot hold the demand */
            for (int64_t si = 0; si < S; si++)
                if (t->st_packer[scan[si]] != 1) t->cut_runs[0]++;
            return -1;
        }
    }
    for (int64_t si = 0; si < S; si++) {
        int64_t s = scan[si];
        int64_t packer = t->st_packer[s];
        if (!t->built[t->st_item[s]]) build_item_order(t, t->st_item[s]);
        if (packer == 2) {
            if (!t->built[t->SI]) build_dim_perm(t);
            if (D == 2 && !t->built[t->SI+1+t->st_cfg[s]])
                build_walk_orders(t, t->st_cfg[s]);
        }
        for (int64_t h = 0; h < H; h++) {
            t->load_sum[h] = 0.0;
            for (int64_t d = 0; d < D; d++) t->loads[h*D+d] = 0.0;
        }
        for (int64_t j = 0; j < J; j++) assignment[j] = -1;
        const int64_t *item_order = t->item_orders + t->st_item[s]*J;
        int64_t hetero = t->st_hetero[s];
        int64_t left;
        if (packer == 1) {
            if (bf_pack(J, H, D, t->item_agg, t->item_agg_sum, t->elem_ok,
                        item_order, t->loads, t->load_sum, t->cap_tol,
                        t->bin_agg_sum, hetero, assignment) == 1)
                return si;
            continue;
        }
        if (packer == 0) {
            left = ff_run(J, H, H, D, t->item_agg, t->elem_ok, t->bin_ok,
                          item_order, t->item_min + t->st_item[s]*(J+1)*D,
                          t->bin_orders + t->st_bin[s]*H, t->loads,
                          t->load_sum, t->cap_tol, t->waste_limit,
                          assignment, t->work_i, t->work_f, t->work_f + D,
                          t->scanned);
        } else if (D == 2) {
            int64_t c = t->st_cfg[s];
            const double *walk_min = t->walk_min + c*2*(J+1)*2;
            left = pp_2d_run(J, H, H, t->item_agg, t->elem_ok, t->bin_ok,
                             t->pp_order0 + c*J, t->pp_order1 + c*J,
                             walk_min, walk_min + (J+1)*2,
                             t->bin_orders + t->st_bin[s]*H, t->loads,
                             t->load_sum, t->cap_tol, t->bin_agg, hetero,
                             t->waste_limit, assignment, t->dead,
                             t->scanned);
        } else {
            left = pp_general_run(J, H, H, D, t->st_w[s], t->st_choose[s],
                                  t->item_agg, t->item_agg_sum, t->elem_ok,
                                  t->bin_ok, t->item_dim_perm,
                                  t->tie_ranks + t->st_item[s]*J,
                                  t->bin_orders + t->st_bin[s]*H, t->loads,
                                  t->load_sum, t->cap_tol, t->bin_agg,
                                  hetero, t->waste_limit, assignment,
                                  t->work_i, t->work_f, t->dead);
        }
        if (left == 0) return si;
        if (left == CUT) t->cut_runs[0]++;
    }
    return -1;
}
"""

_C_SOURCE = _C_KERNELS + _TABLE_TYPEDEF + _C_PROBE


class NativeBuildError(RuntimeError):
    """The native kernels could not be compiled or loaded."""


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-kernels")


_CC_IDENTITY: dict = {}


def _compiler() -> list[str]:
    """``$CC`` as an argv prefix: split like a shell word list, so
    ``ccache gcc`` or ``gcc -m64`` work; unset or blank means ``cc``."""
    try:
        return shlex.split(os.environ.get("CC", "")) or ["cc"]
    except ValueError as exc:
        raise NativeBuildError(f"cannot parse CC: {exc}") from exc


def _compiler_identity(cc: list[str]) -> str:
    """Stable identity string for *cc* (command + first ``--version`` line).

    Part of the shared-object cache key: a compiler upgrade changes the
    version banner, so the stale ``.so`` built by the old compiler is
    never picked up.  Unresolvable compilers hash as ``unknown`` — the
    subsequent compile step reports the real error.
    """
    command = " ".join(cc)
    ident = _CC_IDENTITY.get(command)
    if ident is None:
        try:
            proc = subprocess.run([*cc, "--version"], capture_output=True,
                                  text=True, timeout=10)
            lines = (proc.stdout or proc.stderr).splitlines()
            ident = lines[0].strip() if lines else "unknown"
        except Exception:
            ident = "unknown"
        _CC_IDENTITY[command] = ident
    return f"{command}|{ident}"


#: Compiler flags; part of the cache key like the source.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _build_library() -> str:
    """Compile (or reuse) the shared object; returns its path."""
    cc = _compiler()
    key = "\0".join((_C_SOURCE, " ".join(_CFLAGS), _compiler_identity(cc)))
    digest = hashlib.sha1(key.encode()).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"repro_kernels_{digest}.so")
    if os.path.exists(lib_path):
        return lib_path
    try:
        os.makedirs(cache, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as tmp:
            src = os.path.join(tmp, "kernels.c")
            obj = os.path.join(tmp, "kernels.so")
            with open(src, "w") as fh:
                fh.write(_C_SOURCE)
            proc = subprocess.run(
                [*cc, *_CFLAGS, "-o", obj, src],
                capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise NativeBuildError(
                    f"{' '.join(cc)} failed ({proc.returncode}): "
                    f"{proc.stderr.strip()[:500]}")
            # Atomic publish: concurrent builders race benignly.
            os.replace(obj, lib_path)
    except NativeBuildError:
        raise
    except Exception as exc:
        raise NativeBuildError(f"cannot build native kernels: {exc}") from exc
    return lib_path


#: Each exported kernel's C arguments, in order: ``i`` an int64, ``d`` a
#: double, ``p`` a raw data address (every array; see :class:`_NativeKernels`).
_SIGNATURES = {
    "affine_fit_thresholds": "iii" + "p" * 4,
    "incremental_best_fit": "iii" + "p" * 6,
    "greedy_scan": "iiii" + "p" * 15 + "ddpp",
    "share_nodes": "i" + "p" * 9 + "idd" + "p" * 8,
}
_CTYPES = {"i": ctypes.c_int64, "d": ctypes.c_double, "p": ctypes.c_void_p}


_address = operator.attrgetter("ctypes.data")


def _addresses(*arrays: np.ndarray) -> Iterator[int]:
    """Each array's raw data address, in order."""
    return map(_address, arrays)


class _ProbeTable(ctypes.Structure):
    """ctypes mirror of the C ``probe_table_t``."""

    _fields_ = [(name, {"int64_t": ctypes.c_int64,
                        "double": ctypes.c_double}.get(ctype, ctypes.c_void_p))
                for name, ctype in _TABLE_FIELDS]


class _NativeKernels:
    """ctypes shims with the :mod:`._loops` signatures.

    Every shim passes each array as a raw data address, after the
    adapter checked the kernel's declaration (:func:`~.api.check_args`).
    A raw address does not keep its array alive: a shim passes only its
    own arguments, which the caller's checked declaration or a named
    local holds until the call returns, never a temporary of its own.
    The probe table's struct points into the blocks its
    :class:`~.api.ProbeTable` owns.
    """

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        for name, signature in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype = ctypes.c_int64
            fn.argtypes = [_CTYPES[code] for code in signature]
        lib.probe_scan.restype = ctypes.c_int64
        lib.probe_scan.argtypes = [ctypes.POINTER(_ProbeTable),
                                   ctypes.c_double, ctypes.c_void_p,
                                   ctypes.c_int64, ctypes.c_void_p]

    def affine_fit_thresholds(self, req, need, cap, out):
        return self._lib.affine_fit_thresholds(
            req.shape[0], cap.shape[0], req.shape[1],
            *_addresses(req, need, cap, out))

    def incremental_best_fit(self, req_agg, elem_fit, loads, agg,
                             cap_tol, out):
        return self._lib.incremental_best_fit(
            req_agg.shape[0], loads.shape[0], req_agg.shape[1],
            *_addresses(req_agg, elem_fit, loads, agg, cap_tol, out))

    def bind_probe_table(self, t):
        """The C struct of table *t*: its dimensions and margin, and the
        data pointers of its arrays, offsets into the blocks *t* keeps
        alive."""
        base = {dtype: block.ctypes.data for dtype, block in t.blocks.items()}
        layout = t.layout
        return _ProbeTable(*(
            base[layout[name][0]] + layout[name][1] if pointer
            else getattr(t, name) for name, pointer in _TABLE_MEMBERS))

    def probe_scan(self, t, y, scan, assignment):
        return self._lib.probe_scan(t.handle, y, scan.ctypes.data,
                                    scan.shape[0], assignment.ctypes.data)

    def greedy_scan(self, req_agg, req_agg_sum, need_dim, req_dim,
                    elem_ok, bin_agg, bin_agg_sum, cap_tol, req_elem,
                    need_elem, need_agg, bin_elem, orders, pass_order,
                    pass_pick, feas_atol, feas_rtol, placements,
                    min_yields):
        return self._lib.greedy_scan(
            req_agg.shape[0], bin_agg.shape[0], req_agg.shape[1],
            pass_order.shape[0], *_addresses(
                req_agg, req_agg_sum, need_dim, req_dim, elem_ok, bin_agg,
                bin_agg_sum, cap_tol, req_elem, need_elem, need_agg,
                bin_elem, orders, pass_order, pass_pick),
            feas_atol, feas_rtol, *_addresses(placements, min_yields))

    def share_nodes(self, order, counts, req, need, est_need, elem_req,
                    elem_need, node_agg, node_elem, policy, epsilon,
                    share_atol, yields, buf, dem, wts, cons, unsat, frames,
                    partial):
        return self._lib.share_nodes(
            counts.shape[0], *_addresses(
                order, counts, req, need, est_need, elem_req, elem_need,
                node_agg, node_elem),
            policy, epsilon, share_atol, *_addresses(
                yields, buf, dem, wts, cons, unsat, frames, partial))


def load_native_kernels() -> _NativeKernels:
    """Build/load the shared object; raises :class:`NativeBuildError`."""
    try:
        lib = ctypes.CDLL(_build_library())
    except NativeBuildError:
        raise
    except OSError as exc:
        raise NativeBuildError(f"cannot load native kernels: {exc}") from exc
    return _NativeKernels(lib)
