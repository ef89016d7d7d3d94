"""The numpy/pure-Python kernel backend (the PR-3 hot paths, moved).

This is the always-available reference implementation: the threshold
table is a running minimum over ``(J, H)`` planes, the dynamic newcomer
fill is a per-item vectorized best-fit, and the greedy scan runs its
passes one by one with a vectorized fit test per service.  The §6
sharing evaluation runs the :mod:`._loops` source itself on Python
lists, which beats per-node numpy calls on a few services per node.
The packers every backend shares live in :mod:`.packers`, and this
backend has no fused ``probe_scan``.  Every path handles any dimension
count — backend choice never depends on D — and the compiled backends
must reproduce these results bit-for-bit.  The thresholds, best-fit,
greedy scan and sharing check their declared inputs as the compiled
backend does.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import _loops
from .api import (GreedyScanArgs, KernelBackend, ShareNodesArgs,
                  best_fit_args, check_args, threshold_args)

__all__ = ["NumpyKernelBackend"]


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
