"""The numpy/pure-Python kernel backend (the PR-3 hot paths, moved).

This is the always-available reference implementation: the packer scalar
paths run on Python floats over pre-extracted nested lists (per-item
numpy calls cost more than the arithmetic at the paper's J≈100), the
threshold table is a running minimum over ``(J, H)`` planes, the dynamic
newcomer fill is a per-item vectorized best-fit, and the greedy scan
runs its passes one by one with a vectorized fit test per service.  The
§6 sharing evaluation runs the :mod:`._loops` source itself on Python
lists, which beats per-node numpy calls on a few services per node.
Every path handles any dimension count — backend choice never depends
on D — and the compiled backends must reproduce these results
bit-for-bit.  The thresholds, best-fit, greedy scan and sharing check
their declared inputs as the compiled backend does.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import _loops
from .api import (GreedyScanArgs, KernelBackend, ShareNodesArgs,
                  best_fit_args, check_args, threshold_args)

__all__ = ["NumpyKernelBackend"]

_SENTINEL = np.iinfo(np.int64).max


def _bin_dim_rank_tuple(state, h: int, by_remaining: bool) -> tuple:
    """Rank of each dimension of bin *h* (0 = fill first), as a tuple.

    Same rule as the packer layer's ``_bin_dim_rank``: ascending current
    load (homogeneous) or descending remaining capacity (heterogeneous).
    Duplicated here rather than imported — kernels are a leaf package
    (LY303) and may not reach back into :mod:`repro.algorithms`.
    """
    if by_remaining:
        key = -(state.bin_agg[h] - state.loads[h])
    else:
        key = state.loads[h]
    perm = np.argsort(key, kind="stable")
    rank = np.empty_like(perm)
    rank[perm] = np.arange(perm.shape[0])
    return tuple(int(r) for r in rank)


# -- greedy passes ------------------------------------------------------
# Node pickers by code (P1..P7): ``(args, cands, loads, j) -> node``.

def _pick_p1(a, cands, loads, j):
    d = a.need_dim[j]
    return cands[int(np.argmax(a.bin_agg[cands, d] - loads[cands, d]))]


def _pick_p2(a, cands, loads, j):
    after = loads[cands].sum(axis=1) + a.req_agg_sum[j]
    return cands[int(np.argmin(after / a.bin_agg_sum[cands]))]


def _pick_p3(a, cands, loads, j):
    d = a.req_dim[j]
    return cands[int(np.argmin(a.bin_agg[cands, d] - loads[cands, d]))]


def _pick_p4(a, cands, loads, j):
    remaining = (a.bin_agg[cands] - loads[cands]).sum(axis=1)
    return cands[int(np.argmin(remaining))]


def _pick_p5(a, cands, loads, j):
    d = a.req_dim[j]
    return cands[int(np.argmax(a.bin_agg[cands, d] - loads[cands, d]))]


def _pick_p6(a, cands, loads, j):
    remaining = (a.bin_agg[cands] - loads[cands]).sum(axis=1)
    return cands[int(np.argmax(remaining))]


def _pick_p7(a, cands, loads, j):
    return cands[0]


_PICKERS = (_pick_p1, _pick_p2, _pick_p3, _pick_p4, _pick_p5, _pick_p6,
            _pick_p7)


def _greedy_pass(a: GreedyScanArgs, order: np.ndarray,
                 pick: int) -> Optional[np.ndarray]:
    """One pass: each service in *order* to its picker's fitting node."""
    picker = _PICKERS[pick]
    loads = np.zeros_like(a.bin_agg)
    placement = np.full(order.shape[0], -1, dtype=np.int64)
    for j in order:
        j = int(j)
        fits = a.elem_ok[j] & (loads + a.req_agg[j] <= a.cap_tol).all(axis=1)
        cands = np.flatnonzero(fits)
        if cands.size == 0:
            return None
        h = int(picker(a, cands, loads, j))
        loads[h] += a.req_agg[j]
        placement[j] = h
    return placement


def _node_yield(a: GreedyScanArgs, h: int, members: np.ndarray) -> float:
    """Largest common yield of *members* on node *h*, -1 if infeasible.

    The object model's ``max_min_yield_on_node``, restated over the scan
    arguments (kernels do not import the object model).
    """
    cap_elem, cap_agg = a.bin_elem[h], a.bin_agg[h]
    req_elem, need_elem = a.req_elem[members], a.need_elem[members]
    if (req_elem > cap_elem + a.feas_atol).any():
        return -1.0
    agg_req = a.req_agg[members].sum(axis=0)
    if (agg_req > cap_agg * (1 + a.feas_rtol) + a.feas_atol).any():
        return -1.0
    y = 1.0
    mask = need_elem > 0
    if mask.any():
        y = min(y, ((cap_elem - req_elem)[mask] / need_elem[mask]).min())
    agg_need = a.need_agg[members].sum(axis=0)
    dmask = agg_need > 0
    if dmask.any():
        y = min(y, ((cap_agg - agg_req)[dmask] / agg_need[dmask]).min())
    return float(min(1.0, max(0.0, y)))


def _improved_min_yield(a: GreedyScanArgs, placement: np.ndarray) -> float:
    """Minimum yield once every node's services get their common yield."""
    yields = np.zeros(placement.shape[0])
    for h in range(a.bin_agg.shape[0]):
        members = np.flatnonzero(placement == h)
        if members.size == 0:
            continue
        y = _node_yield(a, h, members)
        if y >= 0:
            yields[members] = np.maximum(yields[members], y)
    return float(yields.min())


class NumpyKernelBackend(KernelBackend):
    name = "numpy"

    # -- First-Fit -----------------------------------------------------
    def first_fit(self, state, item_order, bin_order) -> bool:
        """Scalar path: greedy per-bin fill on Python floats (any D)."""
        agg = state.item_agg_rows
        elem_ok = state.elem_ok_rows
        D = state.item_agg.shape[1]
        pending = [int(j) for j in item_order]
        for h in bin_order:
            if not pending:
                break
            h = int(h)
            load = [float(x) for x in state.loads[h]]
            cap = [float(x) for x in state.bin_cap_tol[h]]
            taken = []
            rest = []
            for j in pending:
                a = agg[j]
                ok = elem_ok[j][h]
                if ok:
                    for d in range(D):
                        if load[d] + a[d] > cap[d]:
                            ok = False
                            break
                if ok:
                    for d in range(D):
                        load[d] += a[d]
                    taken.append(j)
                else:
                    rest.append(j)
            if taken:
                state.commit_bin(taken, h, tuple(load))
                pending = rest
        return not pending

    # -- Best-Fit ------------------------------------------------------
    def best_fit(self, state, item_order,
                 by_remaining_capacity: bool) -> bool:
        for j in item_order:
            fits = state.bins_fitting_item(j)
            if not fits.any():
                return False
            # ``load_sum`` is maintained incrementally by ``place`` — an
            # O(H) read per item instead of a fresh (H, D) reduction.
            if by_remaining_capacity:
                score = state.bin_agg_sum - state.load_sum
            else:
                score = -state.load_sum
            # Among fitting bins pick the minimal score; break ties by
            # index (masked argmin is stable on first occurrence).
            score = np.where(fits, score, np.inf)
            state.place(j, int(np.argmin(score)))
        return True

    # -- Permutation-Pack ----------------------------------------------
    def permutation_pack(self, state, pp, bin_order,
                         by_remaining: bool) -> bool:
        if state.item_agg.shape[1] == 2:
            return self._pp_walk_2d(state, pp.codes_for, bin_order,
                                    by_remaining)
        return self._pp_general(state, pp.codes_for, bin_order,
                                by_remaining)

    def _pp_walk_2d(self, state, codes_for, bin_order,
                    by_remaining: bool) -> bool:
        """Pointer-walk fast path for 2-D instances."""
        agg = state.item_agg_rows
        elem_ok = state.elem_ok_rows
        pending = [int(j) for j in state.unplaced_items()]
        for h in bin_order:
            if not pending:
                break
            h = int(h)
            l0 = float(state.loads[h, 0])
            l1 = float(state.loads[h, 1])
            c0 = float(state.bin_cap_tol[h, 0])
            c1 = float(state.bin_cap_tol[h, 1])
            if by_remaining:
                b0 = float(state.bin_agg[h, 0])
                b1 = float(state.bin_agg[h, 1])
            else:
                b0 = b1 = 0.0
            k0 = l0 - b0
            k1 = l1 - b1
            K = len(pending)
            # Sorted candidate positions per ranking, built lazily:
            # ranking 0 is (0, 1) — dimension 0 emptier or tied —
            # ranking 1 is (1, 0).
            orders: list = [None, None]
            ptrs = [0, 0]
            dead = bytearray(K)
            taken = []
            while True:
                r = 0 if k0 <= k1 else 1
                lst = orders[r]
                if lst is None:
                    codes = codes_for((0, 1) if r == 0 else (1, 0))
                    lst = orders[r] = np.argsort(codes[pending]).tolist()
                p = ptrs[r]
                sel = -1
                while p < K:
                    pos = lst[p]
                    if dead[pos]:
                        p += 1
                        continue
                    a = agg[pending[pos]]
                    if elem_ok[pending[pos]][h] \
                            and l0 + a[0] <= c0 and l1 + a[1] <= c1:
                        sel = pos
                        break
                    # Unfit now means unfit for good on this bin.
                    dead[pos] = 1
                    p += 1
                ptrs[r] = p
                if sel < 0:
                    break                                # bin exhausted
                j = pending[sel]
                a = agg[j]
                l0 += a[0]
                l1 += a[1]
                k0 = l0 - b0
                k1 = l1 - b1
                dead[sel] = 1
                taken.append(j)
                if len(taken) == K:
                    break
            if taken:
                state.commit_bin(taken, h, (l0, l1))
                if state.complete:
                    return True
                taken_set = set(taken)
                pending = [j for j in pending if j not in taken_set]
        return state.complete

    def _pp_general(self, state, codes_for, bin_order,
                    by_remaining: bool) -> bool:
        """Sentinel-masked argmin selection for D != 2."""
        item_agg = state.item_agg
        for h in bin_order:
            h = int(h)
            if state.complete:
                return True
            cands = state.unplaced_items()
            cands = cands[state.items_fitting_bin(h, cands)]
            if cands.size == 0:
                continue
            cap = state.bin_cap_tol[h]                   # (D,)
            cand_agg = item_agg[cands]                   # (K, D)
            dead = np.zeros(cands.size, dtype=bool)
            # One live code array per bin ranking seen while filling this
            # bin (at most D!): deaths are written through to all of them
            # so switching rankings is a dict lookup, not a rebuild.
            live_codes: dict = {}
            while True:
                ranking = _bin_dim_rank_tuple(state, h, by_remaining)
                cand_codes = live_codes.get(ranking)
                if cand_codes is None:
                    cand_codes = codes_for(ranking)[cands]  # fresh array
                    cand_codes[dead] = _SENTINEL
                    live_codes[ranking] = cand_codes
                sel = int(np.argmin(cand_codes))
                if cand_codes[sel] == _SENTINEL:
                    break                                # bin exhausted
                state.place(int(cands[sel]), h)
                dead[sel] = True
                for arr in live_codes.values():
                    arr[sel] = _SENTINEL
                if state.complete:
                    break
                # Bulk-retire candidates the shrunken bin no longer fits.
                gone = ~dead & (cand_agg > cap - state.loads[h]).any(axis=1)
                if gone.any():
                    dead |= gone
                    for arr in live_codes.values():
                        arr[gone] = _SENTINEL
            if state.complete:
                return True
        return state.complete

    # -- probe factory -------------------------------------------------
    def affine_fit_thresholds(self, req, need, cap) -> np.ndarray:
        """The per-pair loop's minimum over the dimensions in order, one
        ``(J, H)`` plane at a time: ``np.where(t < out, t, out)`` is the
        loop's ``if t < m: m = t``, so a NaN threshold never replaces the
        minimum and of two tied ones the first stays."""
        args, dims = threshold_args(req, need, cap)
        fluid = args.need > 0
        need = np.where(fluid, args.need, 1.0)
        out = np.full((dims["J"], dims["H"]), np.inf)
        for d in range(dims["D"]):
            slack = args.cap[:, d] - args.req[:, d, None]         # (J, H)
            t = np.where(fluid[:, d, None], slack / need[:, d, None],
                         np.where(slack >= 0, np.inf, -np.inf))
            out = np.where(t < out, t, out)
        return out

    # -- dynamic simulator ---------------------------------------------
    def incremental_best_fit(self, req_agg, elem_fit, loads, agg,
                             cap_tol) -> np.ndarray:
        args, dims = best_fit_args(req_agg, elem_fit, loads, agg, cap_tol)
        req_agg, elem_fit = args.req_agg, args.elem_fit
        out = np.empty(dims["K"], dtype=np.int64)
        for i in range(dims["K"]):
            fits = (elem_fit[i]
                    & (loads + req_agg[i] <= cap_tol).all(axis=1))
            cands = np.flatnonzero(fits)
            if cands.size == 0:
                out[i] = -1
                continue
            remaining = (agg[cands] - loads[cands]).sum(axis=1)
            h = int(cands[np.argmin(remaining)])  # best fit
            out[i] = h
            loads[h] += req_agg[i]
        return out

    # -- greedy passes -------------------------------------------------
    def greedy_scan(self, args: GreedyScanArgs
                    ) -> tuple[np.ndarray, np.ndarray]:
        """The greedy scan as a loop over passes (the reference result)."""
        dims = check_args(args)
        P = dims["P"]
        placements = np.full((P, dims["J"]), -1, dtype=np.int64)
        min_yields = np.full(P, -np.inf)
        for p in range(P):
            placement = _greedy_pass(args, args.orders[args.pass_order[p]],
                                     int(args.pass_pick[p]))
            if placement is not None:
                placements[p] = placement
                min_yields[p] = _improved_min_yield(args, placement)
        return placements, min_yields

    # -- §6 sharing ----------------------------------------------------
    def share_nodes(self, args: ShareNodesArgs) -> np.ndarray:
        """The loop kernel on Python lists (the reference arithmetic on
        Python floats, which are the same IEEE doubles)."""
        J = check_args(args)["J"]
        yields = [0.0] * J
        _loops.share_nodes(
            args.order.tolist(), args.counts.tolist(), args.req.tolist(),
            args.need.tolist(), args.est_need.tolist(),
            args.elem_req.tolist(), args.elem_need.tolist(),
            args.node_agg.tolist(), args.node_elem.tolist(),
            int(args.policy), float(args.epsilon), float(args.share_atol),
            yields, [0.0] * J, [0.0] * J, [0.0] * J, [0.0] * J, [0] * J,
            np.zeros((128, 3), dtype=np.int64), [0.0] * 64)
        return np.array(yields, dtype=np.float64)
