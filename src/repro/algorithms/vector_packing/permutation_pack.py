"""Permutation-Pack / Choose-Pack (§3.5.2), with the paper's improved
key-mapping implementation.

Leinberger et al.'s original formulation keeps ``D!`` item lists — one per
permutation of item dimensions — and, for each bin, scans the lists in the
lexicographic order induced by the bin's own dimension ranking.  The paper
replaces the lists with a direct *key mapping*: each item's dimension
permutation is mapped through the bin's ranking, producing a ``(D,)``
integer key per item; the item with the lexicographically smallest key is
the one that best "goes against the bin's capacity imbalance".  This costs
``O(J·D)`` per selection instead of ``O(D!)`` list probes, i.e. ``O(J²D)``
overall (or ``O(J²w)`` with a window).

Windowing: with ``window = w < D`` only the first *w* key positions are
compared (Permutation Pack), and Choose Pack further ignores their relative
order (compares the sorted window).  With ``w = 1`` the two coincide.

Kernel notes (the seed loop survives in :mod:`.legacy`, which also
serves dimension counts whose packed codes overflow an int64):

* the per-item dimension permutation depends only on demands, fixed for
  the probe, so it comes hoisted from ``state.item_dim_perm``;
* selection packs the ``w`` key digits plus the item-sort tie-break rank
  into one int64 per item — a total order, so "lexicographically smallest
  fitting key" is a plain minimum.  The packed codes depend on the bin
  only through its dimension ranking, of which there are at most ``D!``
  (two, in the paper's 2-D setting), so they are computed once per
  ranking per strategy run;
* the whole selection dispatches to the active kernel backend for any
  dimension count, and every backend runs the same selection
  (:mod:`repro.kernels.packers`), split in two: on 2-D instances each
  bin is filled by walking the (at most two) code-sorted candidate
  lists with per-ranking pointers — a candidate that fails a fit check
  is dead for this bin forever, so each is visited O(1) times per
  ranking — while the general-D loop recomputes the bin ranking per
  selection and bulk-retires no-longer-fitting candidates.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ...kernels import get_backend
from ...kernels.api import codes_overflow
from .state import PackingState

__all__ = ["permutation_pack", "rank_from_order", "packed_codes"]

_MAX_CACHED_RANKINGS = 64


def rank_from_order(order: np.ndarray) -> np.ndarray:
    """Invert a permutation: ``rank[order[i]] = i``.

    Used to turn an item sort order into the per-item tie-break rank that
    stands in for the "lists further sorted by a vector sorting criterion"
    of the original algorithm.
    """
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    return rank


def _bin_dim_rank(state: PackingState, h: int, by_remaining: bool) -> np.ndarray:
    """Rank of each dimension of bin *h* (0 = dimension to fill first).

    The homogeneous rule ranks dimensions ascending by current load; the
    heterogeneous rule ranks descending by remaining capacity.  Both place
    the "emptiest" dimension first and coincide when all bins share one
    capacity vector.
    """
    if by_remaining:
        key = -(state.bin_agg[h] - state.loads[h])
    else:
        key = state.loads[h]
    perm = np.argsort(key, kind="stable")
    rank = np.empty_like(perm)
    rank[perm] = np.arange(perm.shape[0])
    return rank


def packed_codes(item_perm_w: np.ndarray, ranking, D: int, J: int,
                 tie_rank: np.ndarray, choose_pack: bool) -> np.ndarray:
    """Packed selection codes for one bin ranking (smaller = earlier).

    ``item_perm_w`` is the hoisted ``(J, w)`` window of each item's
    dimension permutation; the code is the ``w`` mapped key digits (base
    ``D``) followed by the item-sort tie-break rank.  The strategy-run
    path below sorts by these codes; the fused probe's kernel builds its
    2-D walk orders without them, and the tests diff those walks against
    ``argsort`` of these codes.
    """
    rank_arr = np.asarray(ranking, dtype=np.int64)
    keys = rank_arr[item_perm_w]                         # (J, w)
    if choose_pack and keys.shape[1] > 1:
        keys = np.sort(keys, axis=1)
    code = keys[:, 0]
    for c in range(1, keys.shape[1]):
        code = code * D + keys[:, c]
    return code * (J + 1) + tie_rank


def _make_codes(state: PackingState, item_sort_rank: np.ndarray,
                w: int, choose_pack: bool
                ) -> Callable[[tuple[int, ...]], np.ndarray]:
    """Per-ranking packed-code builder for one strategy run (codes per
    explicit ranking, memoized), which is all the backend reads."""
    D = state.item_agg.shape[1]
    J = state.num_items
    item_perm_w = state.item_dim_perm[:, :w]             # (J, w), hoisted
    tie_rank = np.asarray(item_sort_rank, dtype=np.int64)
    cache: dict[tuple[int, ...], np.ndarray] = {}

    def codes_for(ranking: tuple[int, ...]) -> np.ndarray:
        codes = cache.get(ranking)
        if codes is None:
            codes = packed_codes(item_perm_w, ranking, D, J, tie_rank,
                                 choose_pack)
            if len(cache) < _MAX_CACHED_RANKINGS:
                cache[ranking] = codes
        return codes

    return codes_for


def permutation_pack(
    state: PackingState,
    item_sort_rank: np.ndarray,
    bin_order: np.ndarray,
    window: int | None = None,
    choose_pack: bool = False,
    rank_bins_by_remaining: bool = False,
) -> bool:
    """Pack bin-by-bin, matching item imbalance against bin imbalance.

    Parameters
    ----------
    item_sort_rank:
        ``(J,)`` tie-break rank from the item sort strategy.
    bin_order:
        Order in which bins are filled (a permutation of bin indices).
    window:
        Number of leading key positions compared; ``None`` means all ``D``.
    choose_pack:
        Compare the window as an unordered set (Choose Pack) instead of a
        sequence (Permutation Pack).
    rank_bins_by_remaining:
        Heterogeneous dimension ranking (see :func:`_bin_dim_rank`).

    Returns True when every item is placed.
    """
    D = state.item_agg.shape[1]
    w = D if window is None else max(1, min(window, D))
    J = state.num_items
    if codes_overflow(D, w, J):
        from .legacy import legacy_permutation_pack
        return legacy_permutation_pack(
            state, item_sort_rank, bin_order, window=window,
            choose_pack=choose_pack,
            rank_bins_by_remaining=rank_bins_by_remaining)
    return get_backend().permutation_pack(
        state, _make_codes(state, item_sort_rank, w, choose_pack),
        bin_order, rank_bins_by_remaining)
