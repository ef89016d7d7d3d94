"""The fused engine's batched sort orders equal the per-sort reference.

Each probe builds every scalar-metric item order with one stacked
argsort, the tie ranks with one scatter and the 2-D PP/CP walk orders
with one argsort per (window, Choose-Pack) group.  Element for element
they must equal ``order_indices``, ``rank_from_order`` and
``packed_codes`` + ``argsort`` run per sort, on instances full of ties.
"""

import numpy as np
import pytest

from repro.algorithms.vector_packing import (
    FusedProbeEngine,
    VPStrategy,
    hvp_strategies,
    rank_from_order,
    vp_strategies,
)
from repro.algorithms.vector_packing.permutation_pack import packed_codes
from repro.algorithms.vector_packing.sorting import (
    ALL_SORTS,
    NONE_SORT,
    order_indices,
)
from repro.algorithms.vector_packing.strategies import CP, PP
from repro.core.instance import ProblemInstance
from repro.core.node import NodeArray
from repro.core.service import ServiceArray

#: Choose-Pack at windows 1 and 2 over every item sort.
CP_LIST = tuple(VPStrategy(CP, sort, NONE_SORT, hetero=hetero, window=w)
                for sort in ALL_SORTS for w in (1, 2)
                for hetero in (False, True))

LISTS = {
    "hvp": hvp_strategies(),
    "vp-window1": vp_strategies(window=1),
    "choose-pack": CP_LIST,
    "mixed": hvp_strategies()[::3] + vp_strategies(window=1) + CP_LIST,
}


def tied_instance(D, J=23, H=4, seed=0):
    """Demands on a coarse grid: duplicate rows, equal metric values,
    zero entries (MAXRATIO's infinities) and zero needs."""
    rng = np.random.default_rng(seed + D)
    cap = rng.uniform(2.0, 4.0, size=(H, D))
    req = rng.integers(0, 4, size=(J, D)) * 0.1
    need = rng.integers(0, 3, size=(J, D)) * 0.25
    req[J // 2:J // 2 + 3] = req[0]
    need[J // 2:J // 2 + 3] = need[0]
    return ProblemInstance(NodeArray.from_arrays(cap, cap),
                           ServiceArray.from_arrays(req, req, need, need))


@pytest.mark.parametrize("name", list(LISTS))
@pytest.mark.parametrize("D", (1, 2, 3, 5))
def test_batched_orders_equal_per_sort_reference(D, name):
    strategies = LISTS[name]
    instance = tied_instance(D)
    J = len(instance.services)
    engine = FusedProbeEngine(instance, strategies)
    for y in (0.0, 0.4, 1.0):
        args = engine._scan_args(y, engine._scan_cold)
        item_agg = args.item_agg
        ranks = {}
        for i, sort in enumerate(engine._item_sorts):
            order = order_indices(item_agg, sort)
            ranks[sort] = rank_from_order(order)
            assert np.array_equal(args.item_orders[i], order), (y, sort)
            assert np.array_equal(args.tie_ranks[i], ranks[sort]), (y, sort)
        assert np.array_equal(args.item_dim_perm,
                              np.argsort(-item_agg, axis=1, kind="stable"))
        walks = 0
        for s, st in enumerate(strategies):
            if st.packer not in (PP, CP) or D != 2:
                continue
            c = args.st_cfg[s]
            perm_w = args.item_dim_perm[:, :args.st_w[s]]
            for ranking, got in (((0, 1), args.pp_order0[c]),
                                 ((1, 0), args.pp_order1[c])):
                codes = packed_codes(perm_w, ranking, D, J,
                                     ranks[st.item_sort], st.packer == CP)
                assert np.array_equal(got, np.argsort(codes)), (y, st.name)
            walks += 1
        if D != 2:
            assert args.pp_order0.shape == (0, J)
        else:
            assert walks > 0


def test_instances_are_tied():
    """The reference instances really exercise tie-breaking."""
    for D in (1, 2, 3, 5):
        item_agg = tied_instance(D).services.req_agg
        assert len(np.unique(item_agg, axis=0)) < len(item_agg)
        assert len(np.unique(item_agg.sum(axis=1))) < len(item_agg)
        assert (item_agg == 0).any()
