"""Reference implementation of Leinberger et al.'s original D!-list
Permutation-Pack (§3.5.2).

Kept for the ablation benchmark (``test_bench_pp_impl.py``) against the
paper's improved key-mapping implementation
(:mod:`repro.algorithms.vector_packing.permutation_pack`): the original
separates items into ``D!`` lists keyed by their dimension permutation
and, for each bin, probes the lists in the lexicographic order induced
by the bin's own dimension ranking — ``O(D!)`` list probes per selection
versus the improved ``O(J·D)`` scan.  Both must select identical items;
``test_naive_pp.py`` asserts bit-identical placements.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from repro.algorithms.vector_packing.permutation_pack import _bin_dim_rank
from repro.algorithms.vector_packing.state import PackingState

__all__ = ["permutation_pack_naive"]


def permutation_pack_naive(
    state: PackingState,
    item_sort_rank: np.ndarray,
    bin_order: np.ndarray,
    rank_bins_by_remaining: bool = False,
) -> bool:
    """Original D!-list Permutation Pack (full window only).

    Semantics match :func:`permutation_pack` with ``window=None`` and
    ``choose_pack=False``; only the data structure differs.
    """
    D = state.item_agg.shape[1]
    all_perms = list(permutations(range(D)))

    for h in bin_order:
        h = int(h)
        while not state.complete:
            cands = state.unplaced_items()
            fit = state.items_fitting_bin(h, cands)
            cands = cands[fit]
            if cands.size == 0:
                break
            # Build the D! lists: item -> its dimension permutation
            # (descending demand).  Items within a list are ordered by the
            # item sort criterion.
            lists: dict[tuple[int, ...], list[int]] = {p: [] for p in all_perms}
            item_perm = state.item_dim_perm
            for j in cands[np.argsort(item_sort_rank[cands], kind="stable")]:
                lists[tuple(item_perm[j].tolist())].append(int(j))
            # Probe lists in the lexicographic order induced by the bin's
            # dimension ranking: the list whose mapped key is smallest
            # first.  bin_rank[d] is the bin's rank of dimension d.
            bin_rank = _bin_dim_rank(state, h, rank_bins_by_remaining)
            probe_order = sorted(
                all_perms, key=lambda p: tuple(bin_rank[list(p)]))
            chosen = -1
            for perm in probe_order:
                if lists[perm]:
                    chosen = lists[perm][0]
                    break
            if chosen < 0:
                break  # cannot happen while cands is non-empty
            state.place(chosen, h)
        if state.complete:
            return True
    return state.complete
