"""Seed-faithful packer kernels: the tests' reference loops, and the
Permutation-Pack fallback for very high dimension counts.

These are the original loop structures: First-Fit and Best-Fit re-derive
their fit masks and scores from scratch for every item, and
Permutation-Pack recomputes the per-item dimension permutation and runs a
full ``np.lexsort`` for every single placement.  The vectorized kernels in
:mod:`.first_fit`, :mod:`.best_fit` and :mod:`.permutation_pack` must
produce the same placements; the kernel-equivalence tests compare
against these.  :func:`legacy_permutation_pack` is also the production
path whenever the packed selection codes would overflow an int64
(``D ** w * (J + 1) >= 2 ** 62``), which the META* engine selector
routes to the per-strategy engine.

Both tie-order and tolerance semantics come from the shared
:class:`~.state.PackingState` / :mod:`.sorting` code (stable descending
sorts, the unified feasibility tolerance), so the reference is *correct
but slow*.
"""

from __future__ import annotations

import numpy as np

from .permutation_pack import _bin_dim_rank
from .state import PackingState

__all__ = ["legacy_first_fit", "legacy_best_fit", "legacy_permutation_pack"]


def legacy_first_fit(state: PackingState, item_order: np.ndarray,
                     bin_order: np.ndarray) -> bool:
    """Seed First-Fit: one full fit-mask recomputation per item."""
    for j in item_order:
        fits = state.bins_fitting_item(j)
        ordered_fits = fits[bin_order]
        pos = np.argmax(ordered_fits)
        if not ordered_fits[pos]:
            return False
        state.place(int(j), int(bin_order[pos]))
    return True


def legacy_best_fit(state: PackingState, item_order: np.ndarray,
                    by_remaining_capacity: bool) -> bool:
    """Seed Best-Fit: a fresh ``(H, D)`` score reduction per item."""
    for j in item_order:
        fits = state.bins_fitting_item(j)
        if not fits.any():
            return False
        if by_remaining_capacity:
            score = (state.bin_agg - state.loads).sum(axis=1)
        else:
            score = -state.loads.sum(axis=1)
        score = np.where(fits, score, np.inf)
        state.place(int(j), int(np.argmin(score)))
    return True


def legacy_permutation_pack(
    state: PackingState,
    item_sort_rank: np.ndarray,
    bin_order: np.ndarray,
    window: int | None = None,
    choose_pack: bool = False,
    rank_bins_by_remaining: bool = False,
) -> bool:
    """Seed Permutation-Pack: per-placement argsort + lexsort."""
    D = state.item_agg.shape[1]
    w = D if window is None else max(1, min(window, D))

    for h in bin_order:
        h = int(h)
        while not state.complete:
            cands = state.unplaced_items()
            fit = state.items_fitting_bin(h, cands)
            cands = cands[fit]
            if cands.size == 0:
                break  # bin exhausted, move on
            bin_rank = _bin_dim_rank(state, h, rank_bins_by_remaining)
            # Item dimension permutation: descending demand, stable.
            item_perm = np.argsort(-state.item_agg[cands], axis=1,
                                   kind="stable")
            keys = bin_rank[item_perm][:, :w]               # (K, w)
            if choose_pack and w > 1:
                keys = np.sort(keys, axis=1)
            # Lexicographically smallest key wins; ties fall back to the
            # item sort rank.  np.lexsort's last key is primary.
            sort_keys = (item_sort_rank[cands],) + tuple(
                keys[:, c] for c in range(w - 1, -1, -1))
            best = cands[np.lexsort(sort_keys)[0]]
            state.place(int(best), h)
        if state.complete:
            return True
    return state.complete
