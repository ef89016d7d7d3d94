"""The vector packers' fills, one implementation for every backend.

First-Fit's per-bin fill, Best-Fit's O(1)-update scoring loop and
Permutation/Choose-Pack's packed-code selection on a packing state, any
D: scalar paths on Python floats over pre-extracted nested lists
(per-item numpy calls cost more than the arithmetic at the paper's
J≈100).  :class:`~.api.KernelBackend` runs them on every backend; the
compiled fills (:mod:`._loops`, its C) run only inside ``probe_scan``.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

import numpy as np

__all__ = ["first_fit", "best_fit", "permutation_pack"]

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


def first_fit(state: Any, item_order: np.ndarray,
              bin_order: np.ndarray) -> bool:
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


def best_fit(state: Any, item_order: np.ndarray,
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


def permutation_pack(state: Any,
                     codes_for: Callable[[Tuple[int, ...]], np.ndarray],
                     bin_order: np.ndarray, by_remaining: bool) -> bool:
    """PP/CP: the 2-D pointer walk, or the general selection loop."""
    if state.item_agg.shape[1] == 2:
        return _pp_walk_2d(state, codes_for, bin_order, by_remaining)
    return _pp_general(state, codes_for, bin_order, by_remaining)


def _pp_walk_2d(state, codes_for, bin_order, by_remaining: bool) -> bool:
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


def _pp_general(state, codes_for, bin_order, by_remaining: bool) -> bool:
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
