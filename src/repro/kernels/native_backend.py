"""Native (C via ctypes) kernel backend.

A line-for-line translation of :mod:`._loops` compiled on demand with the
system C compiler (``$CC`` or ``cc``).  Two structural differences: the
bodies of the bin-major fills are ``static`` functions that take their
scratch arrays from the caller (the exported fills allocate it per call
and return -1 when they cannot), and ``probe_scan`` takes its table as
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
import os
import shlex
import subprocess
import tempfile

import numpy as np

__all__ = ["load_native_kernels", "NativeBuildError"]

_C_KERNELS = r"""
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

#define CUT (-2)
#define NOMEM (-1)

/* The bin-major fills' bodies take their scratch from the caller:
   probe_scan from its bound table, the exported fills per call.
   i: J + 3*D int64 (FF pending; PP cand, perm, rank, keys with w <= D),
   f: 2*D doubles (FF load; PP key; then the waste), dead: J bytes. */
typedef struct { int64_t *i; double *f; uint8_t *dead; } scratch_t;

static int scratch_alloc(scratch_t *s, int64_t J, int64_t D)
{
    s->i = malloc((size_t)(J + 3*D) * sizeof(int64_t));
    s->f = malloc((size_t)(2*D) * sizeof(double));
    s->dead = malloc((size_t)J + 1);
    return s->i && s->f && s->dead;
}

static void scratch_free(scratch_t *s)
{
    free(s->i);
    free(s->f);
    free(s->dead);
}

static int64_t ff_run(int64_t J, int64_t H, int64_t NB, int64_t D,
                      const double *item_agg, const uint8_t *elem_ok,
                      const int64_t *item_order, const int64_t *bin_order,
                      double *loads, double *load_sum,
                      const double *cap_tol, const double *waste_limit,
                      int64_t *assignment, int64_t *pending, double *load,
                      double *waste)
{
    int64_t npend = J;
    for (int64_t i = 0; i < J; i++) pending[i] = item_order[i];
    for (int64_t d = 0; d < D; d++) waste[d] = 0.0;
    for (int64_t bi = 0; bi < NB; bi++) {
        if (npend == 0) break;
        for (int64_t d = 0; d < D; d++)
            if (waste[d] > waste_limit[d]) return CUT;
        int64_t h = bin_order[bi];
        for (int64_t d = 0; d < D; d++) load[d] = loads[h*D+d];
        int64_t ntaken = 0, nrest = 0;
        for (int64_t i = 0; i < npend; i++) {
            int64_t j = pending[i];
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
                pending[nrest++] = j;
            }
        }
        if (ntaken > 0) {
            double s = 0.0;
            for (int64_t d = 0; d < D; d++) {
                loads[h*D+d] = load[d];
                s += load[d];
            }
            load_sum[h] = s;
        }
        npend = nrest;
        for (int64_t d = 0; d < D; d++) waste[d] += cap_tol[h*D+d] - load[d];
    }
    return npend;
}

int64_t ff_fill(int64_t J, int64_t H, int64_t NB, int64_t D,
                const double *item_agg, const uint8_t *elem_ok,
                const int64_t *item_order, const int64_t *bin_order,
                double *loads, double *load_sum,
                const double *cap_tol, const double *waste_limit,
                int64_t *assignment)
{
    scratch_t sc;
    int64_t r = NOMEM;
    if (scratch_alloc(&sc, J, D))
        r = ff_run(J, H, NB, D, item_agg, elem_ok, item_order, bin_order,
                   loads, load_sum, cap_tol, waste_limit, assignment,
                   sc.i, sc.f, sc.f + D);
    scratch_free(&sc);
    return r;
}

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

static int64_t pp_2d_run(int64_t J, int64_t H, int64_t NB,
                         const double *item_agg, const uint8_t *elem_ok,
                         const int64_t *order0, const int64_t *order1,
                         const int64_t *bin_order,
                         double *loads, double *load_sum,
                         const double *cap_tol, const double *bin_agg,
                         int64_t by_remaining, const double *waste_limit,
                         int64_t *assignment, uint8_t *dead)
{
    int64_t unplaced = 0;
    for (int64_t j = 0; j < J; j++)
        if (assignment[j] < 0) unplaced++;
    double w0 = 0.0, w1 = 0.0;
    for (int64_t bi = 0; bi < NB; bi++) {
        if (unplaced == 0) break;
        if (w0 > waste_limit[0] || w1 > waste_limit[1]) return CUT;
        int64_t h = bin_order[bi];
        double l0 = loads[h*2+0], l1 = loads[h*2+1];
        double c0 = cap_tol[h*2+0], c1 = cap_tol[h*2+1];
        double b0 = 0.0, b1 = 0.0;
        if (by_remaining) { b0 = bin_agg[h*2+0]; b1 = bin_agg[h*2+1]; }
        double k0 = l0 - b0, k1 = l1 - b1;
        int64_t p0 = 0, p1 = 0, ntaken = 0;
        for (int64_t j = 0; j < J; j++) dead[j] = 0;
        for (;;) {
            int64_t sel = -1;
            if (k0 <= k1) {
                int64_t p = p0;
                while (p < J) {
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
    return unplaced;
}

int64_t pp_fill_2d(int64_t J, int64_t H, int64_t NB,
                   const double *item_agg, const uint8_t *elem_ok,
                   const int64_t *order0, const int64_t *order1,
                   const int64_t *bin_order,
                   double *loads, double *load_sum,
                   const double *cap_tol, const double *bin_agg,
                   int64_t by_remaining, const double *waste_limit,
                   int64_t *assignment)
{
    scratch_t sc;
    int64_t r = NOMEM;
    if (scratch_alloc(&sc, J, 2))
        r = pp_2d_run(J, H, NB, item_agg, elem_ok, order0, order1,
                      bin_order, loads, load_sum, cap_tol, bin_agg,
                      by_remaining, waste_limit, assignment, sc.dead);
    scratch_free(&sc);
    return r;
}

static int64_t pp_general_run(int64_t J, int64_t H, int64_t NB, int64_t D,
                              int64_t w, int64_t choose_pack,
                              const double *item_agg,
                              const double *item_agg_sum,
                              const uint8_t *elem_ok,
                              const int64_t *item_dim_perm,
                              const int64_t *tie_rank,
                              const int64_t *bin_order,
                              double *loads, double *load_sum,
                              const double *cap_tol, const double *bin_agg,
                              int64_t by_remaining,
                              const double *waste_limit,
                              int64_t *assignment, int64_t *iscr,
                              double *fscr, uint8_t *dead)
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

int64_t pp_fill_general(int64_t J, int64_t H, int64_t NB, int64_t D,
                        int64_t w, int64_t choose_pack,
                        const double *item_agg, const double *item_agg_sum,
                        const uint8_t *elem_ok, const int64_t *item_dim_perm,
                        const int64_t *tie_rank, const int64_t *bin_order,
                        double *loads, double *load_sum,
                        const double *cap_tol, const double *bin_agg,
                        int64_t by_remaining, const double *waste_limit,
                        int64_t *assignment)
{
    scratch_t sc;
    int64_t r = NOMEM;
    if (scratch_alloc(&sc, J, D))
        r = pp_general_run(J, H, NB, D, w, choose_pack, item_agg,
                           item_agg_sum, elem_ok, item_dim_perm, tie_rank,
                           bin_order, loads, load_sum, cap_tol, bin_agg,
                           by_remaining, waste_limit, assignment, sc.i,
                           sc.f, sc.dead);
    scratch_free(&sc);
    return r;
}

int64_t affine_fit_thresholds(int64_t J, int64_t H, int64_t D,
                              const double *req, const double *need,
                              const double *cap, double *out)
{
    for (int64_t j = 0; j < J; j++) {
        for (int64_t h = 0; h < H; h++) {
            double m = INFINITY;
            for (int64_t d = 0; d < D; d++) {
                double slack = cap[h*D+d] - req[j*D+d];
                double nd = need[j*D+d];
                double t;
                if (nd > 0) t = slack / nd;
                else if (slack >= 0) t = INFINITY;
                else t = -INFINITY;
                if (t < m) m = t;
            }
            out[j*H+h] = m;
        }
    }
    return 0;
}

int64_t batch_fit_thresholds(int64_t B, int64_t N, int64_t Hm, int64_t D,
                             const double *req, const double *need,
                             const double *cap, const int64_t *n_items,
                             const int64_t *n_bins, double *out)
{
    for (int64_t b = 0; b < B; b++) {
        int64_t J = n_items[b];
        int64_t H = n_bins[b];
        const double *breq = req + b*N*D;
        const double *bneed = need + b*N*D;
        const double *bcap = cap + b*Hm*D;
        double *bout = out + b*N*Hm;
        for (int64_t j = 0; j < J; j++) {
            for (int64_t h = 0; h < H; h++) {
                double m = INFINITY;
                for (int64_t d = 0; d < D; d++) {
                    double slack = bcap[h*D+d] - breq[j*D+d];
                    double nd = bneed[j*D+d];
                    double t;
                    if (nd > 0) t = slack / nd;
                    else if (slack >= 0) t = INFINITY;
                    else t = -INFINITY;
                    if (t < m) m = t;
                }
                bout[j*Hm+h] = m;
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
        "sort_key", "work_f", "partial")),
    *((name, "int64_t *") for name in (
        "item_orders", "tie_ranks", "item_dim_perm", "pp_order0",
        "pp_order1", "sort_tmp", "work_i", "frames", "cut_runs")),
    *((name, "uint8_t *") for name in ("elem_ok", "built", "dead")),
)

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
    for (int64_t j = 0; j < J; j++) {
        for (int64_t d = 0; d < D; d++)
            t->item_agg[j*D+d] = t->req_agg[j*D+d] + y * t->need_agg[j*D+d];
        t->item_agg_sum[j] = pairwise_sum(t->item_agg + j*D, D, t->frames,
                                          t->partial);
        for (int64_t h = 0; h < H; h++)
            t->elem_ok[j*H+h] = t->y_elem_max[j*H+h] >= y;
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
    }
    t->built[t->SI+1+c] = 1;
}

int64_t probe_scan(const probe_table_t *t, double y, const int64_t *scan,
                   int64_t S, int64_t *assignment)
{
    int64_t J = t->J, H = t->H, D = t->D;
    probe_inputs(t, y);
    t->cut_runs[0] = 0;
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
            left = ff_run(J, H, H, D, t->item_agg, t->elem_ok, item_order,
                          t->bin_orders + t->st_bin[s]*H, t->loads,
                          t->load_sum, t->cap_tol, t->waste_limit,
                          assignment, t->work_i, t->work_f, t->work_f + D);
        } else if (D == 2) {
            left = pp_2d_run(J, H, H, t->item_agg, t->elem_ok,
                             t->pp_order0 + t->st_cfg[s]*J,
                             t->pp_order1 + t->st_cfg[s]*J,
                             t->bin_orders + t->st_bin[s]*H, t->loads,
                             t->load_sum, t->cap_tol, t->bin_agg, hetero,
                             t->waste_limit, assignment, t->dead);
        } else {
            left = pp_general_run(J, H, H, D, t->st_w[s], t->st_choose[s],
                                  t->item_agg, t->item_agg_sum, t->elem_ok,
                                  t->item_dim_perm,
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


_f64p = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_i64p = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_u8p = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
_i64 = ctypes.c_int64


def _u8(mask: np.ndarray) -> np.ndarray:
    """Bool mask as a uint8 view (no copy for contiguous bool arrays)."""
    if mask.dtype == np.bool_:
        return mask.view(np.uint8)
    return np.ascontiguousarray(mask, dtype=np.uint8)


class _ProbeTable(ctypes.Structure):
    """ctypes mirror of the C ``probe_table_t``."""

    _fields_ = [(name, {"int64_t": ctypes.c_int64,
                        "double": ctypes.c_double}.get(ctype, ctypes.c_void_p))
                for name, ctype in _TABLE_FIELDS]


class _NativeKernels:
    """ctypes shims with the :mod:`._loops` signatures."""

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        lib.ff_fill.restype = _i64
        lib.ff_fill.argtypes = [_i64, _i64, _i64, _i64, _f64p, _u8p,
                                _i64p, _i64p, _f64p, _f64p, _f64p, _f64p,
                                _i64p]
        lib.bf_pack.restype = _i64
        lib.bf_pack.argtypes = [_i64, _i64, _i64, _f64p, _f64p, _u8p,
                                _i64p, _f64p, _f64p, _f64p, _f64p, _i64,
                                _i64p]
        lib.pp_fill_2d.restype = _i64
        lib.pp_fill_2d.argtypes = [_i64, _i64, _i64, _f64p, _u8p, _i64p,
                                   _i64p, _i64p, _f64p, _f64p, _f64p,
                                   _f64p, _i64, _f64p, _i64p]
        lib.pp_fill_general.restype = _i64
        lib.pp_fill_general.argtypes = [_i64, _i64, _i64, _i64, _i64,
                                        _i64, _f64p, _f64p, _u8p, _i64p,
                                        _i64p, _i64p, _f64p, _f64p,
                                        _f64p, _f64p, _i64, _f64p, _i64p]
        lib.affine_fit_thresholds.restype = _i64
        lib.affine_fit_thresholds.argtypes = [_i64, _i64, _i64, _f64p,
                                              _f64p, _f64p, _f64p]
        lib.batch_fit_thresholds.restype = _i64
        lib.batch_fit_thresholds.argtypes = [_i64, _i64, _i64, _i64,
                                             _f64p, _f64p, _f64p, _i64p,
                                             _i64p, _f64p]
        lib.incremental_best_fit.restype = _i64
        lib.incremental_best_fit.argtypes = [_i64, _i64, _i64, _f64p,
                                             _u8p, _f64p, _f64p, _f64p,
                                             _i64p]
        lib.probe_scan.restype = _i64
        lib.probe_scan.argtypes = [ctypes.POINTER(_ProbeTable),
                                   ctypes.c_double, ctypes.c_void_p, _i64,
                                   ctypes.c_void_p]
        lib.greedy_scan.restype = _i64
        lib.greedy_scan.argtypes = [_i64, _i64, _i64, _i64,
                                    _f64p, _f64p, _i64p, _i64p, _u8p,
                                    _f64p, _f64p, _f64p, _f64p, _f64p,
                                    _f64p, _f64p, _i64p, _i64p, _i64p,
                                    ctypes.c_double, ctypes.c_double,
                                    _i64p, _f64p]

    def ff_fill(self, item_agg, elem_ok, item_order, bin_order,
                loads, load_sum, cap_tol, waste_limit, assignment):
        return self._lib.ff_fill(
            item_order.shape[0], loads.shape[0], bin_order.shape[0],
            item_agg.shape[1], item_agg, _u8(elem_ok), item_order,
            bin_order, loads, load_sum, cap_tol, waste_limit, assignment)

    def bf_pack(self, item_agg, item_agg_sum, elem_ok, item_order,
                loads, load_sum, cap_tol, bin_agg_sum, by_remaining,
                assignment):
        return self._lib.bf_pack(
            item_order.shape[0], loads.shape[0], item_agg.shape[1],
            item_agg, item_agg_sum, _u8(elem_ok), item_order, loads,
            load_sum, cap_tol, bin_agg_sum, int(by_remaining), assignment)

    def pp_fill_2d(self, item_agg, elem_ok, order0, order1, bin_order,
                   loads, load_sum, cap_tol, bin_agg, by_remaining,
                   waste_limit, assignment):
        return self._lib.pp_fill_2d(
            item_agg.shape[0], loads.shape[0], bin_order.shape[0],
            item_agg, _u8(elem_ok), order0, order1, bin_order, loads,
            load_sum, cap_tol, bin_agg, int(by_remaining), waste_limit,
            assignment)

    def pp_fill_general(self, item_agg, item_agg_sum, elem_ok,
                        item_dim_perm, tie_rank, w, choose_pack,
                        bin_order, loads, load_sum, cap_tol, bin_agg,
                        by_remaining, waste_limit, assignment):
        return self._lib.pp_fill_general(
            item_agg.shape[0], loads.shape[0], bin_order.shape[0],
            item_agg.shape[1], int(w), int(choose_pack), item_agg,
            item_agg_sum, _u8(elem_ok), item_dim_perm, tie_rank,
            bin_order, loads, load_sum, cap_tol, bin_agg,
            int(by_remaining), waste_limit, assignment)

    def affine_fit_thresholds(self, req, need, cap, out):
        return self._lib.affine_fit_thresholds(
            req.shape[0], cap.shape[0], req.shape[1], req, need, cap, out)

    def batch_fit_thresholds(self, req, need, cap, n_items, n_bins, out):
        return self._lib.batch_fit_thresholds(
            req.shape[0], req.shape[1], cap.shape[1], req.shape[2],
            req, need, cap, n_items, n_bins, out)

    def incremental_best_fit(self, req_agg, elem_fit, loads, agg,
                             cap_tol, out):
        return self._lib.incremental_best_fit(
            req_agg.shape[0], loads.shape[0], req_agg.shape[1], req_agg,
            _u8(elem_fit), loads, agg, cap_tol, out)

    def bind_probe_table(self, t):
        """The C struct of table *t*: its dimensions and margin, and the
        data pointers of its arrays, which *t* keeps alive."""
        return _ProbeTable(*(
            getattr(t, name).ctypes.data if ctype.endswith("*")
            else getattr(t, name) for name, ctype in _TABLE_FIELDS))

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
            pass_order.shape[0], req_agg, req_agg_sum, need_dim, req_dim,
            _u8(elem_ok), bin_agg, bin_agg_sum, cap_tol, req_elem,
            need_elem, need_agg, bin_elem, orders, pass_order, pass_pick,
            feas_atol, feas_rtol, placements, min_yields)


def load_native_kernels() -> _NativeKernels:
    """Build/load the shared object; raises :class:`NativeBuildError`."""
    try:
        lib = ctypes.CDLL(_build_library())
    except NativeBuildError:
        raise
    except OSError as exc:
        raise NativeBuildError(f"cannot load native kernels: {exc}") from exc
    return _NativeKernels(lib)
