"""Scalar loop kernels — the source of truth for the compiled backend.

These are the hot inner loops of the vector packers and the probe
factory, written in a restricted numpy-scalar style that maps one to one
onto C (no Python containers, no closures, no fancy indexing).  Two
consumers share them:

* :mod:`.native_backend` is a line-for-line C translation (same IEEE
  float64 operation order, so results are bit-identical);
* the tests run them *uncompiled* as the ``loops`` reference backend, so
  the logic is exercised even on machines without a C compiler.

Every kernel mutates its output arrays in place and performs float
arithmetic in exactly the same order as the numpy references
(:mod:`.numpy_backend`, and :mod:`.packers` for the fills), which is
what makes cross-backend placements and loads bit-identical rather than
merely close.

The packer kernels work for any dimension count D.  Permutation-Pack
keeps the dedicated 2-D pointer walk (:func:`pp_2d_run`) alongside the
general selection loop (:func:`pp_fill_general`): the two produce the
same *placements* but accumulate bin loads in a different float order
(per-bin commit vs per-item update), as :mod:`.packers` does — backend
choice itself never depends on D.  The fills run only inside
:func:`probe_scan`; every backend's standalone packers are
:mod:`.packers`.

:func:`probe_scan` is the fused META* probe: one kernel call that
builds the probe's inputs at the probed yield (:func:`probe_inputs`,
then each strategy's item order, dimension permutation and 2-D walk
orders on first use) and scans a whole strategy table, with no
per-strategy Python dispatch and no per-probe numpy work.  Its
yield-independent arrays and buffers come bound in one table
(:class:`repro.kernels.api.ProbeTable`).
:func:`greedy_scan` does the same for METAGREEDY: one call runs a
list of greedy passes and returns each pass's placement and its minimum
yield after the per-node closed-form improvement.  Where the numpy
reference *sums* arrays, :func:`pairwise_sum` reproduces numpy's
summation order, so those sums match bit for bit too.
:func:`share_nodes` is the §6 runtime sharing evaluation: one call shares
every node's fluid capacity under a policy, work-conserving rounds
included, and writes each service's actual yield.  Besides the C, the
numpy backend runs it too, on Python lists.

The three *bin-major* fills (:func:`ff_run`, :func:`pp_2d_run`,
:func:`pp_fill_general`) fill one bin at a time in bin order and never
reopen a closed bin.  Each takes a per-dimension ``waste_limit``: once
the capacity its closed bins left unused exceeds the limit in some
dimension, the run stops and returns :data:`CUT` (see
:func:`probe_scan` for why that never changes an outcome).  An
infinite limit never cuts.  Within a bin, First-Fit's scan and the 2-D
walk also stop once no item left can fit, read off the
:func:`suffix_minima` of their orders; their bodies (:func:`ff_run`,
:func:`pp_2d_run`) take those minima and their scratch from the caller,
as the C translation's do.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ff_run",
    "bf_pack",
    "pp_2d_run",
    "suffix_minima",
    "pp_fill_general",
    "affine_fit_thresholds",
    "batch_fit_thresholds",
    "incremental_best_fit",
    "bind_probe_table",
    "probe_scan",
    "probe_inputs",
    "build_item_order",
    "build_dim_perm",
    "build_walk_orders",
    "pairwise_sum",
    "greedy_scan",
    "share_nodes",
    "share_rounds",
    "CUT",
]

#: A bin-major fill's result when its closed bins wasted more capacity
#: than ``waste_limit`` allows: the run cannot pack, so it stopped.
CUT = -2


def ff_run(item_agg, elem_ok, item_order, item_min, bin_order,
           loads, load_sum, cap_tol, waste_limit, assignment, pending,
           load, waste, scanned):
    """First-Fit greedy per-bin fill (any D), on caller-owned scratch:
    ``pending`` (one entry per item in the order), ``load`` and ``waste``
    (D each), and ``scanned``, which gains the number of pending entries
    tested.  Returns the unplaced count, or :data:`CUT` when the closed
    bins waste more than ``waste_limit``.

    Mirrors the scalar fast path of :mod:`.packers`: bins are filled
    one at a time, each taking every pending item (in item order) that
    fits the running load; the bin's load is accumulated in scalars and
    committed once.  ``pending`` holds *positions* in the item order, so each
    tested entry first meets its row of ``item_min``
    (:func:`suffix_minima` of the order): once the bin's load plus the
    least demand from that position on exceeds ``cap_tol`` in some
    dimension, no pending item left can fit, and the bin's scan stops
    (see :func:`probe_scan`).
    """
    J = item_order.shape[0]
    D = item_agg.shape[1]
    for i in range(J):
        pending[i] = i
    npend = J
    for d in range(D):
        waste[d] = 0.0
    for bi in range(bin_order.shape[0]):
        if npend == 0:
            break
        for d in range(D):
            if waste[d] > waste_limit[d]:
                return CUT
        h = bin_order[bi]
        for d in range(D):
            load[d] = loads[h, d]
        ntaken = 0
        nrest = 0
        tested = 0
        i = 0
        while i < npend:
            p = pending[i]
            tested += 1
            stop = False
            for d in range(D):
                if load[d] + item_min[p, d] > cap_tol[h, d]:
                    stop = True
                    break
            if stop:
                break
            j = item_order[p]
            ok = elem_ok[j, h]
            if ok:
                for d in range(D):
                    if load[d] + item_agg[j, d] > cap_tol[h, d]:
                        ok = False
                        break
            if ok:
                for d in range(D):
                    load[d] += item_agg[j, d]
                assignment[j] = h
                ntaken += 1
            else:
                pending[nrest] = p
                nrest += 1
            i += 1
        scanned[0] += tested
        if ntaken > 0:
            while i < npend:  # the untested rest stays pending, in order
                pending[nrest] = pending[i]
                nrest += 1
                i += 1
            s = 0.0
            for d in range(D):
                loads[h, d] = load[d]
                s += load[d]
            load_sum[h] = s
            npend = nrest
        for d in range(D):
            waste[d] += cap_tol[h, d] - load[d]
    return npend


def suffix_minima(item_agg, order, n, out):
    """``out[i, d]`` = the least ``item_agg[order[k], d]`` over ``i <= k
    < n``, and row *n* = ``+inf`` (none left).  A NaN demand propagates
    to every row at or before its position (a NaN passes the fills'
    ``load + a > cap`` test, so no row may rule it out)."""
    D = item_agg.shape[1]
    for d in range(D):
        out[n, d] = np.inf
    for i in range(n - 1, -1, -1):
        j = order[i]
        for d in range(D):
            v = item_agg[j, d]
            m = out[i + 1, d]
            out[i, d] = v if (v < m or v != v) else m
    return 0


def bf_pack(item_agg, item_agg_sum, elem_ok, item_order,
            loads, load_sum, cap_tol, bin_agg_sum, by_remaining,
            assignment):
    """Best-Fit with O(1)-update scores (any D).  Returns 1 on success.

    Scan order and strict-< tie-breaking reproduce the shared packer's
    masked ``argmin`` (first occurrence of the minimal score wins).
    """
    J = item_order.shape[0]
    H = loads.shape[0]
    D = item_agg.shape[1]
    for ii in range(J):
        j = item_order[ii]
        best_h = -1
        best_score = np.inf
        for h in range(H):
            if not elem_ok[j, h]:
                continue
            ok = True
            for d in range(D):
                if loads[h, d] + item_agg[j, d] > cap_tol[h, d]:
                    ok = False
                    break
            if not ok:
                continue
            if by_remaining:
                score = bin_agg_sum[h] - load_sum[h]
            else:
                score = -load_sum[h]
            if score < best_score:
                best_score = score
                best_h = h
        if best_h < 0:
            return 0
        for d in range(D):
            loads[best_h, d] += item_agg[j, d]
        load_sum[best_h] += item_agg_sum[j]
        assignment[j] = best_h
    return 1


def pp_2d_run(item_agg, elem_ok, order0, order1, min0, min1, bin_order,
              loads, load_sum, cap_tol, bin_agg, by_remaining, waste_limit,
              assignment, dead, scanned):
    """The 2-D PP/CP pointer walk, on caller-owned scratch: ``dead``
    (one flag per item) and ``scanned``, which gains the number of walk
    positions visited.  Returns the unplaced count, or :data:`CUT` (as
    :func:`ff_run`).

    ``order0``/``order1`` are the items sorted by their packed selection
    code under dimension ranking (0, 1) resp. (1, 0), over *all* items;
    already-placed items are skipped during the walk, which visits every
    candidate O(1) times per ranking per bin (an unfit candidate is dead
    for the bin forever — remaining capacity never grows).  ``min0`` and
    ``min1`` are the walks' :func:`suffix_minima`: a walk whose bin load
    plus the least demand from its position on exceeds ``cap_tol`` in
    some dimension ends there as if it had reached the end (see
    :func:`probe_scan`).
    """
    J = item_agg.shape[0]
    unplaced = 0
    for j in range(J):
        if assignment[j] < 0:
            unplaced += 1
    w0 = 0.0
    w1 = 0.0
    visited = 0
    for bi in range(bin_order.shape[0]):
        if unplaced == 0:
            break
        if w0 > waste_limit[0] or w1 > waste_limit[1]:
            scanned[0] += visited
            return CUT
        h = bin_order[bi]
        l0 = loads[h, 0]
        l1 = loads[h, 1]
        c0 = cap_tol[h, 0]
        c1 = cap_tol[h, 1]
        if by_remaining:
            b0 = bin_agg[h, 0]
            b1 = bin_agg[h, 1]
        else:
            b0 = 0.0
            b1 = 0.0
        k0 = l0 - b0
        k1 = l1 - b1
        p0 = 0
        p1 = 0
        ntaken = 0
        for j in range(J):
            dead[j] = 0
        while True:
            sel = -1
            if k0 <= k1:
                p = p0
                while p < J:
                    visited += 1
                    if l0 + min0[p, 0] > c0 or l1 + min0[p, 1] > c1:
                        p = J
                        break
                    j = order0[p]
                    if assignment[j] >= 0 or dead[j] == 1:
                        p += 1
                        continue
                    if (elem_ok[j, h]
                            and l0 + item_agg[j, 0] <= c0
                            and l1 + item_agg[j, 1] <= c1):
                        sel = j
                        break
                    dead[j] = 1
                    p += 1
                p0 = p
            else:
                p = p1
                while p < J:
                    visited += 1
                    if l0 + min1[p, 0] > c0 or l1 + min1[p, 1] > c1:
                        p = J
                        break
                    j = order1[p]
                    if assignment[j] >= 0 or dead[j] == 1:
                        p += 1
                        continue
                    if (elem_ok[j, h]
                            and l0 + item_agg[j, 0] <= c0
                            and l1 + item_agg[j, 1] <= c1):
                        sel = j
                        break
                    dead[j] = 1
                    p += 1
                p1 = p
            if sel < 0:
                break
            assignment[sel] = h
            l0 += item_agg[sel, 0]
            l1 += item_agg[sel, 1]
            k0 = l0 - b0
            k1 = l1 - b1
            ntaken += 1
            unplaced -= 1
            if unplaced == 0:
                break
        if ntaken > 0:
            loads[h, 0] = l0
            loads[h, 1] = l1
            load_sum[h] = l0 + l1
        w0 += c0 - l0
        w1 += c1 - l1
    scanned[0] += visited
    return unplaced


def pp_fill_general(item_agg, item_agg_sum, elem_ok, item_dim_perm,
                    tie_rank, w, choose_pack, bin_order, loads, load_sum,
                    cap_tol, bin_agg, by_remaining, waste_limit,
                    assignment):
    """Permutation/Choose-Pack selection loop for any D.  Returns the
    unplaced count, or :data:`CUT` (as :func:`ff_run`).

    Per bin: candidates are the unplaced items that fit the bin's current
    remaining capacity.  Each selection recomputes the bin's dimension
    ranking from its live loads (stable ascending sort of the load — or of
    the negated remaining capacity when ``by_remaining``), packs the first
    ``w`` digits of each candidate's dimension permutation mapped through
    that ranking (sorted ascending for Choose-Pack) plus the item-sort
    tie-break rank into one int64 code, and places the minimal-code
    candidate (codes are a total order, so the minimum is unique).
    Candidates the shrunken bin no longer fits are retired in bulk, so a
    candidate is fit-checked O(1) times per bin.
    """
    J = item_agg.shape[0]
    D = item_agg.shape[1]
    unplaced = 0
    for j in range(J):
        if assignment[j] < 0:
            unplaced += 1
    cand = np.empty(J, np.int64)
    dead = np.empty(J, np.uint8)
    key = np.empty(D, np.float64)
    perm = np.empty(D, np.int64)
    rank = np.empty(D, np.int64)
    keys = np.empty(w, np.int64)
    waste = np.zeros(D, np.float64)
    for bi in range(bin_order.shape[0]):
        if unplaced == 0:
            break
        for d in range(D):
            if waste[d] > waste_limit[d]:
                return CUT
        h = bin_order[bi]
        K = 0
        for j in range(J):
            if assignment[j] >= 0 or not elem_ok[j, h]:
                continue
            fit = True
            for d in range(D):
                if item_agg[j, d] > cap_tol[h, d] - loads[h, d]:
                    fit = False
                    break
            if fit:
                cand[K] = j
                dead[K] = 0
                K += 1
        nlive = K
        while nlive > 0:
            if by_remaining:
                for d in range(D):
                    key[d] = -(bin_agg[h, d] - loads[h, d])
            else:
                for d in range(D):
                    key[d] = loads[h, d]
            for d in range(D):
                perm[d] = d
            for a in range(1, D):  # stable insertion sort on key
                pj = perm[a]
                kv = key[pj]
                b = a - 1
                while b >= 0 and key[perm[b]] > kv:
                    perm[b + 1] = perm[b]
                    b -= 1
                perm[b + 1] = pj
            for d in range(D):
                rank[perm[d]] = d
            sel = -1
            best_code = 0
            for q in range(K):
                if dead[q] == 1:
                    continue
                j = cand[q]
                for c in range(w):
                    keys[c] = rank[item_dim_perm[j, c]]
                if choose_pack and w > 1:
                    for a in range(1, w):  # sort the window ascending
                        kv = keys[a]
                        b = a - 1
                        while b >= 0 and keys[b] > kv:
                            keys[b + 1] = keys[b]
                            b -= 1
                        keys[b + 1] = kv
                code = keys[0]
                for c in range(1, w):
                    code = code * D + keys[c]
                code = code * (J + 1) + tie_rank[j]
                if sel < 0 or code < best_code:
                    best_code = code
                    sel = q
            if sel < 0:
                break
            j = cand[sel]
            for d in range(D):
                loads[h, d] += item_agg[j, d]
            load_sum[h] += item_agg_sum[j]
            assignment[j] = h
            dead[sel] = 1
            nlive -= 1
            unplaced -= 1
            if unplaced == 0:
                break
            for q in range(K):  # bulk-retire no-longer-fitting candidates
                if dead[q] == 1:
                    continue
                jj = cand[q]
                for d in range(D):
                    if item_agg[jj, d] > cap_tol[h, d] - loads[h, d]:
                        dead[q] = 1
                        nlive -= 1
                        break
        for d in range(D):
            waste[d] += cap_tol[h, d] - loads[h, d]
    return unplaced


def affine_fit_thresholds(req, need, cap, out):
    """``out[j, h]`` = largest yield at which item *j* fits bin *h*.

    Same contract as the numpy broadcast version, but with no ``(J, H, D)``
    temporaries.  Dimensions run outermost per item, so each need divides
    a whole row; every ``(j, h)`` still meets the dimensions in order, so
    it keeps the minimum a per-pair loop keeps (a need of 0 or less
    gives ``+inf``, which changes nothing, or ``-inf``).
    """
    J = req.shape[0]
    H = cap.shape[0]
    D = req.shape[1]
    for j in range(J):
        for h in range(H):
            out[j, h] = np.inf
        for d in range(D):
            r = req[j, d]
            nd = need[j, d]
            if nd > 0:
                for h in range(H):
                    t = (cap[h, d] - r) / nd
                    if t < out[j, h]:
                        out[j, h] = t
            else:
                for h in range(H):
                    if not cap[h, d] - r >= 0:
                        out[j, h] = -np.inf
    return 0


def batch_fit_thresholds(req, need, cap, n_items, n_bins, out):
    """Batched :func:`affine_fit_thresholds` over padded ``(B, ...)`` arrays.

    ``req``/``need`` are ``(B, N, D)``, ``cap`` is ``(B, H, D)``; instance
    *b* uses only its first ``n_items[b]`` item rows and ``n_bins[b]`` bin
    rows.  Thresholds land in ``out[b, :n_items[b], :n_bins[b]]``; the
    padding is left untouched.
    """
    for b in range(req.shape[0]):
        J = n_items[b]
        H = n_bins[b]
        affine_fit_thresholds(req[b, :J], need[b, :J], cap[b, :H],
                              out[b, :J, :H])
    return 0


def incremental_best_fit(req_agg, elem_fit, loads, agg, cap_tol, out):
    """Dynamic-simulator newcomer placement (any D).  Returns placed count.

    Each row of ``req_agg`` is best-fit (least total remaining capacity,
    ties to the lowest bin index) against the mutable ``loads``; rows that
    fit nowhere get ``out[i] = -1`` and leave ``loads`` untouched.
    """
    K = req_agg.shape[0]
    H = loads.shape[0]
    D = req_agg.shape[1]
    placed = 0
    for i in range(K):
        best_h = -1
        best_rem = np.inf
        for h in range(H):
            if not elem_fit[i, h]:
                continue
            ok = True
            for d in range(D):
                if loads[h, d] + req_agg[i, d] > cap_tol[h, d]:
                    ok = False
                    break
            if not ok:
                continue
            rem = 0.0
            for d in range(D):
                rem += agg[h, d] - loads[h, d]
            if rem < best_rem:
                best_rem = rem
                best_h = h
        out[i] = best_h
        if best_h >= 0:
            placed += 1
            for d in range(D):
                loads[best_h, d] += req_agg[i, d]
    return placed


def bind_probe_table(t):
    """The handle :func:`probe_scan` takes besides table *t*: none, since
    this reference reads the table's arrays directly (the C translation
    binds a struct of their pointers instead)."""
    return None


def probe_scan(t, y, scan, assignment):
    """The fused META* feasibility probe: one call builds the probe's
    inputs at yield *y* and scans a strategy table.

    *t* is a bound table (:class:`repro.kernels.api.ProbeTable`): the
    instance's yield-independent arrays, the strategy table, and the
    buffers this function fills.  :func:`probe_inputs` first builds the
    per-probe arrays every strategy shares; then, for each strategy in
    ``scan`` order, the strategy's item order (and, for PP/CP, the
    dimension permutation and 2-D walk orders) is built on first use,
    the scratch state is reset and the strategy's packer runs, stopping
    at the first full packing.  Returns the *position in* ``scan`` of the
    winning strategy (its placement is left in ``assignment``), or -1
    when no strategy packs.  ``t.cut_runs[0]`` receives the number of
    runs that stopped at the waste cut, and ``t.scanned[0]`` the work
    of the bin scans: the pending entries First-Fit tested plus the
    positions the 2-D PP/CP walks visited.

    **The waste cut.**  ``waste_limit[d]`` is the capacity the whole
    instance can spare in dimension *d*: the sum of ``cap_tol`` over the
    bins minus the sum of ``item_agg`` over the items, plus a margin for
    float rounding.  FF and PP/CP fill bins one at a time and never reopen
    a closed bin, every bin ends at or below ``cap_tol``, and a run that
    packs leaves exactly the spare capacity unused over all bins; so the
    unused capacity of the bins closed so far never exceeds the limit in
    a run that packs.  A run whose closed bins exceed it cannot pack, and
    stops there as failed: only failing runs end early, and a run that
    packs is untouched.  BF places item by item and is not cut.

    **The stop.**  Each item order and each 2-D walk order comes with
    its suffix minima (:func:`suffix_minima`, built with the order):
    row *i* holds, per dimension, the least demand at positions *i* and
    after.  A First-Fit bin scan stops at a pending entry, and a walk at
    a position, once the bin's load plus that row exceeds ``cap_tol`` in
    some dimension; the scan then ends as if it had tested every entry
    left, and the bin closes as before.  This is exact: round-to-nearest
    addition is monotone, so ``load + m > cap`` for the minimum *m*
    gives ``load + a > cap`` for every demand ``a >= m`` behind it, and
    no skipped item could have passed the fit test (a NaN demand, which
    passes First-Fit's test, makes every row before it NaN, which never
    stops).  The minima cover the whole order, items already placed
    included, and are built once per probe, so they are stale within a
    run: a placed item can only keep a minimum lower than the unplaced
    items' own, which stops a scan later, never wrongly.  Placements,
    loads, cut runs and every outcome are those of the full scans.

    Strategy table columns (all int64, one row per strategy):

    * ``st_packer`` — 0 = FF, 1 = BF, 2 = PP/CP;
    * ``st_item``   — row into ``item_orders`` / ``tie_ranks``;
    * ``st_bin``    — row into ``bin_orders`` (-1 for BF);
    * ``st_hetero`` — heterogeneous flag (BF score / PP dimension ranking);
    * ``st_w``      — effective PP/CP window (<= D);
    * ``st_choose`` — 1 for Choose-Pack;
    * ``st_cfg``    — row into ``pp_order0``/``pp_order1`` for the 2-D
      PP/CP walk (-1 when unused, i.e. FF/BF or D != 2).
    """
    J = t.J
    H = t.H
    D = t.D
    probe_inputs(t, y)
    t.cut_runs[0] = 0
    t.scanned[0] = 0
    for si in range(scan.shape[0]):
        s = scan[si]
        packer = t.st_packer[s]
        if t.built[t.st_item[s]] == 0:
            build_item_order(t, t.st_item[s])
        if packer == 2:
            if t.built[t.SI] == 0:
                build_dim_perm(t)
            if D == 2 and t.built[t.SI + 1 + t.st_cfg[s]] == 0:
                build_walk_orders(t, t.st_cfg[s])
        for h in range(H):
            t.load_sum[h] = 0.0
            for d in range(D):
                t.loads[h, d] = 0.0
        for j in range(J):
            assignment[j] = -1
        item_order = t.item_orders[t.st_item[s]]
        hetero = t.st_hetero[s] != 0
        if packer == 1:
            if bf_pack(t.item_agg, t.item_agg_sum, t.elem_ok, item_order,
                       t.loads, t.load_sum, t.cap_tol, t.bin_agg_sum,
                       hetero, assignment) == 1:
                return si
            continue
        if packer == 0:
            left = ff_run(t.item_agg, t.elem_ok, item_order,
                          t.item_min[t.st_item[s]],
                          t.bin_orders[t.st_bin[s]], t.loads, t.load_sum,
                          t.cap_tol, t.waste_limit, assignment, t.work_i,
                          t.work_f[:D], t.work_f[D:], t.scanned)
        elif D == 2:
            c = t.st_cfg[s]
            left = pp_2d_run(t.item_agg, t.elem_ok, t.pp_order0[c],
                             t.pp_order1[c], t.walk_min[c, 0],
                             t.walk_min[c, 1], t.bin_orders[t.st_bin[s]],
                             t.loads, t.load_sum, t.cap_tol, t.bin_agg,
                             hetero, t.waste_limit, assignment, t.dead,
                             t.scanned)
        else:
            left = pp_fill_general(t.item_agg, t.item_agg_sum, t.elem_ok,
                                   t.item_dim_perm, t.tie_ranks[t.st_item[s]],
                                   t.st_w[s], t.st_choose[s] != 0,
                                   t.bin_orders[t.st_bin[s]], t.loads,
                                   t.load_sum, t.cap_tol, t.bin_agg, hetero,
                                   t.waste_limit, assignment)
        if left == 0:
            return si
        if left == CUT:
            t.cut_runs[0] += 1
    return -1


def probe_inputs(t, y):
    """The per-probe arrays every strategy shares, built from yield *y*.

    Each equals what numpy builds from the same inputs, bit for bit:

    * ``item_agg = req_agg + y * need_agg``;
    * ``item_agg_sum = item_agg.sum(axis=1)`` — :func:`pairwise_sum` over
      each row, so rows of 8 or more use numpy's blocked order;
    * ``elem_ok = y_elem_max >= y``;
    * ``waste_limit`` — ``vector_packing.state.waste_limit`` of
      ``cap_tol_total`` and ``item_agg.sum(axis=0)``.  numpy sums a
      ``(J, 1)`` column pairwise (one contiguous run) but adds the rows
      of a ``(J, D >= 2)`` array in order, and so does this.

    It also marks every lazily built row (item orders, dimension
    permutation, walk orders) stale for this probe.
    """
    J = t.J
    H = t.H
    D = t.D
    for j in range(J):
        for d in range(D):
            t.item_agg[j, d] = t.req_agg[j, d] + y * t.need_agg[j, d]
        t.item_agg_sum[j] = pairwise_sum(t.item_agg[j], D, t.frames,
                                         t.partial)
        for h in range(H):
            t.elem_ok[j, h] = t.y_elem_max[j, h] >= y
    if D == 1:
        t.waste_limit[0] = pairwise_sum(t.item_agg[:, 0], J, t.frames,
                                        t.partial)
    else:
        for d in range(D):
            t.waste_limit[d] = 0.0
        for j in range(J):
            for d in range(D):
                t.waste_limit[d] += t.item_agg[j, d]
    for d in range(D):
        total = t.waste_limit[d]
        t.waste_limit[d] = (t.cap_tol_total[d] - total
                            + t.waste_rtol * (t.cap_tol_total[d] + total))
    for i in range(t.SI + 1 + t.NC):
        t.built[i] = 0
    return 0


def sort_value(t, j, metric):
    """``metric_values`` of item *j* (metric codes: 0 MAX, 1 SUM,
    2 MAXRATIO, 3 MAXDIFFERENCE): the maximum and minimum propagate NaN
    as numpy's do, and MAXRATIO is ``+inf`` for a zero minimum under a
    positive maximum and 1 where neither applies."""
    if metric == 1:
        return t.item_agg_sum[j]
    hi = t.item_agg[j, 0]
    lo = hi
    for d in range(1, t.D):
        v = t.item_agg[j, d]
        if not (hi >= v or hi != hi):
            hi = v
        if not (lo <= v or lo != lo):
            lo = v
    if metric == 0:
        return hi
    if metric == 3:
        return hi - lo
    if lo > 0:
        return hi / lo
    if lo == 0 and hi > 0:
        return np.inf
    return 1.0


def sorts_before(t, a, b, lex, desc):
    """Whether item *a* sorts strictly before item *b*: on ``sort_key``,
    or (LEX) on the demand rows compared from dimension 0, negated when
    *desc*.  Floats compare in numpy's sort order, NaN after every
    number, so equal keys (and 0.0 against -0.0) are ties."""
    if not lex:
        u = t.sort_key[a]
        v = t.sort_key[b]
        return u < v or (v != v and u == u)
    for d in range(t.D):
        u = t.item_agg[a, d]
        v = t.item_agg[b, d]
        if desc:
            u = -u
            v = -v
        if u < v or (v != v and u == u):
            return True
        if v < u or (u != u and v == v):
            return False
    return False


def build_item_order(t, r):
    """Item order *r* of the probe, its tie ranks and its suffix minima
    (``item_min[r]``, for First-Fit's stop), the first two equal to
    ``order_indices(item_agg, sort)`` and ``rank_from_order`` of it.

    ``sort_metric[r]`` codes the sort's metric (0 MAX, 1 SUM, 2 MAXRATIO,
    3 MAXDIFFERENCE, 4 LEX, 5 NONE) and ``sort_desc[r]`` its direction.
    A stable bottom-up merge sort on the metric's value (negated when
    descending) or on the LEX rows gives numpy's stable ``argsort`` and
    ``lexsort`` orders: a stable sort's result is unique.
    """
    J = t.J
    metric = t.sort_metric[r]
    desc = t.sort_desc[r] != 0
    order = t.item_orders[r]
    for j in range(J):
        order[j] = j
    if metric != 5:
        lex = metric == 4
        if not lex:
            for j in range(J):
                v = sort_value(t, j, metric)
                t.sort_key[j] = -v if desc else v
        src = order
        dst = t.sort_tmp
        width = 1
        while width < J:
            lo = 0
            while lo < J:
                mid = min(lo + width, J)
                hi = min(lo + 2 * width, J)
                a = lo
                b = mid
                k = lo
                while a < mid and b < hi:
                    if sorts_before(t, src[b], src[a], lex, desc):
                        dst[k] = src[b]
                        b += 1
                    else:
                        dst[k] = src[a]
                        a += 1
                    k += 1
                while a < mid:
                    dst[k] = src[a]
                    a += 1
                    k += 1
                while b < hi:
                    dst[k] = src[b]
                    b += 1
                    k += 1
                lo = hi
            tmp = src
            src = dst
            dst = tmp
            width *= 2
        if src is not order:
            for i in range(J):
                order[i] = src[i]
    for i in range(J):
        t.tie_ranks[r, order[i]] = i
    suffix_minima(t.item_agg, order, J, t.item_min[r])
    t.built[r] = 1
    return 0


def build_dim_perm(t):
    """Each item's dimensions by descending demand, ties in dimension
    order: ``np.argsort(-item_agg, axis=1, kind="stable")``."""
    for j in range(t.J):
        for d in range(t.D):
            t.item_dim_perm[j, d] = d
        for a in range(1, t.D):  # stable insertion sort on -demand
            pd = t.item_dim_perm[j, a]
            kv = -t.item_agg[j, pd]
            b = a - 1
            while b >= 0:
                u = -t.item_agg[j, t.item_dim_perm[j, b]]
                if not (kv < u or (u != u and kv == kv)):
                    break
                t.item_dim_perm[j, b + 1] = t.item_dim_perm[j, b]
                b -= 1
            t.item_dim_perm[j, b + 1] = pd
    t.built[t.SI] = 1
    return 0


def build_walk_orders(t, c):
    """The 2-D PP/CP walk orders of config *c*: ``pp_order0[c]`` and
    ``pp_order1[c]`` equal ``np.argsort(packed_codes(...))`` under the
    dimension rankings (0, 1) and (1, 0); ``walk_min[c, k]`` are walk
    *k*'s suffix minima, for the walk's stop.

    Config *c* packs ``cfg_w[c]`` key digits (Choose-Pack when
    ``cfg_choose[c]``) ahead of the tie ranks of item order
    ``cfg_item[c]``.  A code sorts by its digits, then by tie rank, so
    the walk lists the items of each digit value in turn, each in item
    order.  At D = 2 a dimension's key under ranking (1, 0) is one minus
    its key under (0, 1), and there are at most 2**2 digit values.
    """
    J = t.J
    w = t.cfg_w[c]
    choose = t.cfg_choose[c] != 0
    r = t.cfg_item[c]
    if t.built[r] == 0:
        build_item_order(t, r)
    order = t.item_orders[r]
    digit = t.sort_tmp
    for k in range(2):
        walk = t.pp_order0[c] if k == 0 else t.pp_order1[c]
        for i in range(J):
            j = order[i]
            k0 = t.item_dim_perm[j, 0]
            if k == 1:
                k0 = 1 - k0
            if w == 1:
                digit[i] = k0
            else:
                k1 = t.item_dim_perm[j, 1]
                if k == 1:
                    k1 = 1 - k1
                if choose and k1 < k0:
                    k0, k1 = k1, k0
                digit[i] = 2 * k0 + k1
        n = 0
        for v in range(2 if w == 1 else 4):
            for i in range(J):
                if digit[i] == v:
                    walk[n] = order[i]
                    n += 1
        suffix_minima(t.item_agg, walk, J, t.walk_min[c, k])
    t.built[t.SI + 1 + c] = 1
    return 0


def pairwise_sum(buf, n, frames, partial):
    """``np.sum(buf[:n])`` bit for bit: numpy's pairwise summation order.

    numpy adds a contiguous float64 run to the 0.0 identity as follows:
    fewer than 8 elements in order; up to 128 elements with eight
    interleaved accumulators, combined as a tree; longer runs split at
    half their length (rounded down to a multiple of 8) and the halves
    summed the same way, left plus right.  The recursion runs on the
    caller-owned stack — ``frames`` (int64, ``(128, 3)`` rows of
    start, length, combine flag) and ``partial`` (float64, 64 partial
    sums), enough for any ``n < 2**63`` — so the function translates
    to C as is and allocates nothing.

    numpy sums this way along the last axis of ``sum(axis=1)``, and down
    a ``(K, 1)`` column (one contiguous run) in ``sum(axis=0)``; with
    ``D >= 2`` columns ``sum(axis=0)`` adds the rows in order instead.
    """
    nf = 1
    frames[0, 0] = 0
    frames[0, 1] = n
    frames[0, 2] = 0
    nv = 0
    while nf > 0:
        nf -= 1
        lo = frames[nf, 0]
        m = frames[nf, 1]
        if frames[nf, 2] == 1:
            nv -= 1
            partial[nv - 1] = partial[nv - 1] + partial[nv]
        elif m > 128:
            m2 = m // 2
            m2 -= m2 % 8
            frames[nf, 2] = 1  # combine once both halves are summed
            nf += 1
            frames[nf, 0] = lo + m2
            frames[nf, 1] = m - m2
            frames[nf, 2] = 0
            nf += 1
            frames[nf, 0] = lo
            frames[nf, 1] = m2
            frames[nf, 2] = 0
            nf += 1
        else:
            if m < 8:
                s = 0.0
                for i in range(m):
                    s += buf[lo + i]
            else:
                r0 = buf[lo]
                r1 = buf[lo + 1]
                r2 = buf[lo + 2]
                r3 = buf[lo + 3]
                r4 = buf[lo + 4]
                r5 = buf[lo + 5]
                r6 = buf[lo + 6]
                r7 = buf[lo + 7]
                i = 8
                stop = m - m % 8
                while i < stop:
                    r0 += buf[lo + i]
                    r1 += buf[lo + i + 1]
                    r2 += buf[lo + i + 2]
                    r3 += buf[lo + i + 3]
                    r4 += buf[lo + i + 4]
                    r5 += buf[lo + i + 5]
                    r6 += buf[lo + i + 6]
                    r7 += buf[lo + i + 7]
                    i += 8
                s = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
                while i < m:
                    s += buf[lo + i]
                    i += 1
            partial[nv] = s
            nv += 1
    return 0.0 + partial[0]


def greedy_scan(req_agg, req_agg_sum, need_dim, req_dim, elem_ok,
                bin_agg, bin_agg_sum, cap_tol, req_elem, need_elem,
                need_agg, bin_elem, orders, pass_order, pass_pick,
                feas_atol, feas_rtol, placements, min_yields):
    """METAGREEDY's passes in one call.

    Runs every pass ``p`` — service order
    ``orders[pass_order[p]]``, node picker ``pass_pick[p]`` — and writes
    the pass's placement to ``placements[p]`` and its minimum yield to
    ``min_yields[p]``.  A pass that cannot place some service gets a
    placement row of -1 and a yield of ``-inf``.  Returns the number of
    passes that placed every service (the C translation returns -1 when
    it cannot allocate its work arrays).

    Each service goes to a node whose elementary fit (``elem_ok``) holds
    and whose aggregate load plus the requirement stays within
    ``cap_tol``; among those the picker chooses (ties and NaN scores to
    the lowest node index, as numpy's ``argmin``/``argmax`` do):

    * 0 (P1) — most remaining capacity in dimension ``need_dim[j]``;
    * 1 (P2) — least (load sum + ``req_agg_sum[j]``) / ``bin_agg_sum``;
    * 2 (P3) — least remaining capacity in dimension ``req_dim[j]``;
    * 3 (P4) — least total remaining capacity;
    * 4 (P5) — most remaining capacity in dimension ``req_dim[j]``;
    * 5 (P6) — most total remaining capacity;
    * 6 (P7) — the first fitting node.

    The yield is the closed-form max-min improvement of
    ``Allocation.improve_yields`` from all-zero yields: each used node
    gets its services' largest common yield (elementary and aggregate
    headroom over need, at most 1), or 0 when its requirements break
    ``feas_atol``/``feas_rtol``; the pass's yield is the least of them.
    Members are visited in ascending service index and summed in numpy's
    order, so the yield equals the object model's bit for bit.
    """
    J = req_agg.shape[0]
    H = bin_agg.shape[0]
    D = req_agg.shape[1]
    loads = np.empty((H, D), np.float64)
    buf = np.empty(J + D, np.float64)
    count = np.empty(H, np.int64)
    start = np.empty(H, np.int64)
    members = np.empty(J, np.int64)
    col_req = np.empty(D, np.float64)
    col_need = np.empty(D, np.float64)
    frames = np.empty((128, 3), np.int64)
    partial = np.empty(64, np.float64)
    agg_scale = 1.0 + feas_rtol
    feasible = 0
    for p in range(pass_order.shape[0]):
        pick = pass_pick[p]
        order = orders[pass_order[p]]
        for h in range(H):
            for d in range(D):
                loads[h, d] = 0.0
        for j in range(J):
            placements[p, j] = -1
        placed = True
        for i in range(J):
            j = order[i]
            best = -1
            best_v = 0.0
            for h in range(H):
                if not elem_ok[j, h]:
                    continue
                fits = True
                for d in range(D):
                    if loads[h, d] + req_agg[j, d] > cap_tol[h, d]:
                        fits = False
                        break
                if not fits:
                    continue
                if pick == 6:
                    best = h
                    break
                if pick == 0:
                    v = bin_agg[h, need_dim[j]] - loads[h, need_dim[j]]
                elif pick == 2 or pick == 4:
                    v = bin_agg[h, req_dim[j]] - loads[h, req_dim[j]]
                elif pick == 1:
                    for d in range(D):
                        buf[d] = loads[h, d]
                    v = ((pairwise_sum(buf, D, frames, partial)
                          + req_agg_sum[j]) / bin_agg_sum[h])
                else:
                    for d in range(D):
                        buf[d] = bin_agg[h, d] - loads[h, d]
                    v = pairwise_sum(buf, D, frames, partial)
                if v != v:  # NaN: numpy's argmin/argmax stop here
                    best = h
                    break
                if best < 0:
                    best = h
                    best_v = v
                elif pick == 0 or pick == 4 or pick == 5:
                    if v > best_v:
                        best = h
                        best_v = v
                elif v < best_v:
                    best = h
                    best_v = v
            if best < 0:
                placed = False
                break
            for d in range(D):
                loads[best, d] += req_agg[j, d]
            placements[p, j] = best
        if not placed:
            for j in range(J):
                placements[p, j] = -1
            min_yields[p] = -np.inf
            continue
        feasible += 1
        # Members of each node in ascending service index.
        for h in range(H):
            count[h] = 0
        for j in range(J):
            count[placements[p, j]] += 1
        s = 0
        for h in range(H):
            start[h] = s
            s += count[h]
            count[h] = 0
        for j in range(J):
            h = placements[p, j]
            members[start[h] + count[h]] = j
            count[h] += 1
        y_min = np.inf
        for h in range(H):
            K = count[h]
            if K == 0:
                continue
            base = start[h]
            if D == 1:
                for q in range(K):
                    buf[q] = req_agg[members[base + q], 0]
                col_req[0] = pairwise_sum(buf, K, frames, partial)
                for q in range(K):
                    buf[q] = need_agg[members[base + q], 0]
                col_need[0] = pairwise_sum(buf, K, frames, partial)
            else:
                for d in range(D):
                    col_req[d] = 0.0
                    col_need[d] = 0.0
                for q in range(K):
                    j = members[base + q]
                    for d in range(D):
                        col_req[d] += req_agg[j, d]
                        col_need[d] += need_agg[j, d]
            ok = True
            for q in range(K):
                j = members[base + q]
                for d in range(D):
                    if req_elem[j, d] > bin_elem[h, d] + feas_atol:
                        ok = False
            for d in range(D):
                if col_req[d] > bin_agg[h, d] * agg_scale + feas_atol:
                    ok = False
            y = 0.0
            if ok:
                y = 1.0
                for q in range(K):
                    j = members[base + q]
                    for d in range(D):
                        nd = need_elem[j, d]
                        if nd > 0:
                            t = (bin_elem[h, d] - req_elem[j, d]) / nd
                            if t < y:
                                y = t
                for d in range(D):
                    if col_need[d] > 0:
                        t = (bin_agg[h, d] - col_req[d]) / col_need[d]
                        if t < y:
                            y = t
                if not y > 0.0:
                    y = 0.0
            if y < y_min:
                y_min = y
        min_yields[p] = y_min
    return feasible




def share_nodes(order, counts, req, need, est_need, elem_req, elem_need,
                node_agg, node_elem, policy, epsilon, share_atol, yields,
                buf, dem, wts, cons, unsat, frames, partial):
    """The §6 runtime sharing of one fluid dimension on every node, in
    one call: each service's actual yield under *policy*.

    Services arrive grouped by node: node ``h`` hosts the next
    ``counts[h]`` entries of ``order`` (ascending service index within a
    node).  The per-service inputs are columns of the sharing dimension:
    rigid aggregate requirement ``req``, true and estimated aggregate
    needs ``need``/``est_need``, elementary requirement and need
    ``elem_req``/``elem_need``; ``node_agg``/``node_elem`` are the
    nodes' capacities.  *policy* is 0 (ALLOCCAPS), 1 (ALLOCWEIGHTS) or 2
    (EQUALWEIGHTS).  ``yields`` (service-indexed) receives the result;
    ``buf``, ``dem``, ``wts``, ``cons`` (floats) and ``unsat`` (flags)
    are scratch of one entry per service, ``frames``/``partial`` are
    :func:`pairwise_sum`'s stack.  Every argument may be a numpy array
    or, save ``frames``, a Python list: the numpy backend runs this
    source on lists.

    Per node this is ``sharing.baseline``'s problem and policy, bit for
    bit: capacity is the node's aggregate minus its members' summed
    requirements (floored at 0 as Python's ``max(capacity, 0.0)``
    does); each demand is the true need clipped by the elementary
    ceiling; weights are the estimate-based allocations (ALLOCCAPS caps
    consumption at them) or all ones; the work-conserving rounds of
    ``work_conserving_shares`` share the capacity; and yields are
    consumption over true need, clipped to [0, 1].  Every sum is
    :func:`pairwise_sum` (numpy's order), and ties and NaNs follow
    numpy: ``np.minimum``/``np.maximum`` return the second operand on a
    tie and propagate NaN, and ``np.clip(x, 0, 1)`` keeps ``x``.
    """
    H = len(counts)
    base = 0
    for h in range(H):
        K = counts[h]
        if K == 0:
            continue
        for q in range(K):
            buf[q] = req[order[base + q]]
        capacity = node_agg[h] - pairwise_sum(buf, K, frames, partial)
        if 0.0 > capacity:
            capacity = 0.0
        # Demands: np.minimum(need, np.minimum(y_cap, 1.0) * need) with
        # y_cap = np.maximum(room, 0.0) / elem_need where elem_need > 0.
        for q in range(K):
            j = order[base + q]
            y_cap = 1.0
            if elem_need[j] > 0:
                room = node_elem[h] - elem_req[j]
                if not (room > 0.0 or room != room):
                    room = 0.0
                y_cap = room / elem_need[j]
            if not (y_cap < 1.0 or y_cap != y_cap):
                y_cap = 1.0
            useful = y_cap * need[j]
            d = need[j]
            if not (d < useful or d != d):
                d = useful
            dem[q] = d
        # Weights: the estimate-based allocations, or equal weights.
        if policy == 2:
            for q in range(K):
                wts[q] = 1.0
        else:
            for q in range(K):
                buf[q] = est_need[order[base + q]]
            total = pairwise_sum(buf, K, frames, partial)
            if total <= 0:
                for q in range(K):
                    wts[q] = 0.0
            else:
                y_hat = capacity / total
                if not y_hat < 1.0:
                    y_hat = 1.0
                for q in range(K):
                    wts[q] = y_hat * est_need[order[base + q]]
        if policy == 0:
            # ALLOCCAPS: consumption capped at the allocations.
            for q in range(K):
                c = wts[q]
                if not (c < dem[q] or c != c):
                    c = dem[q]
                cons[q] = c
        else:
            for q in range(K):
                cons[q] = 0.0
            if not capacity <= 0.0:  # no capacity: nothing consumed
                for q in range(K):
                    buf[q] = dem[q]
                if pairwise_sum(buf, K, frames, partial) <= capacity:
                    for q in range(K):
                        cons[q] = dem[q]
                else:
                    share_rounds(K, dem, wts, capacity, epsilon, share_atol,
                                 buf, cons, unsat, frames, partial)
        for q in range(K):
            j = order[base + q]
            y = 1.0
            if need[j] > 0:
                y = cons[q] / need[j]
                if y < 0.0:
                    y = 0.0
                elif y > 1.0:
                    y = 1.0
            yields[j] = y
        base += K
    return 0


def share_rounds(K, dem, wts, capacity, epsilon, share_atol, buf, cons,
                 unsat, frames, partial):
    """``work_conserving_shares``' redistribution rounds on one node
    whose ``K`` demands sum to more than ``capacity`` (``cons`` enters
    all zero).  Each round offers the pool to the unsatisfied members by
    weight (normalized by the largest, or equal when no weight is
    positive); members whose remaining demand fits their share take it
    and leave, the others take their share, and when none fits every
    share is final.  Ends with ``np.minimum(cons, dem)``."""
    left = K
    for q in range(K):
        unsat[q] = 1
    pool = capacity
    while pool > epsilon and left > 0:
        wmax = -np.inf
        for q in range(K):
            if unsat[q]:
                v = wts[q]
                if v > wmax or v != v:
                    wmax = v
        n = 0
        for q in range(K):
            if unsat[q]:
                if wmax <= 0.0:
                    buf[n] = 1.0
                else:
                    buf[n] = wts[q] / wmax
                n += 1
        wsum = pairwise_sum(buf, n, frames, partial)
        n = 0
        done = 0
        for q in range(K):
            if unsat[q]:
                share = pool * (buf[n] / wsum)
                need_left = dem[q] - cons[q]
                take = share
                if need_left <= share + share_atol:
                    take = need_left
                    unsat[q] = 0
                    done += 1
                cons[q] += take
                buf[n] = take
                n += 1
        if done == 0:
            pool = 0.0
            break
        pool = pool - pairwise_sum(buf, n, frames, partial)
        left -= done
    for q in range(K):
        c = cons[q]
        if not (c < dem[q] or c != c):
            c = dem[q]
        cons[q] = c
    return 0
