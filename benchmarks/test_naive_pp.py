"""The naive D!-list Permutation Pack must match the improved key-mapping
implementation placement-for-placement (they differ only in data
structure)."""

import numpy as np
import pytest

from repro.algorithms.vector_packing import (
    PackingState,
    rank_from_order,
    permutation_pack,
)
from repro.core import Node, ProblemInstance, Service

from naive_pp import permutation_pack_naive


def random_instance(seed, hosts=5, services=14, dims_extra=False):
    rng = np.random.default_rng(seed)
    nodes = [Node.multicore(4, rng.uniform(0.05, 0.3), rng.uniform(0.3, 1.0))
             for _ in range(hosts)]
    svcs = []
    for _ in range(services):
        mem = rng.uniform(0.02, 0.2)
        cpu = rng.uniform(0.02, 0.3)
        svcs.append(Service.from_vectors(
            [0.01, mem], [cpu, mem], [0.01, 0.0], [cpu, 0.0]))
    return ProblemInstance(nodes, svcs)


@pytest.mark.parametrize("seed", range(8))
def test_naive_matches_fast_placements(seed):
    inst = random_instance(seed)
    for hetero in (False, True):
        fast = PackingState(inst, 0.0)
        naive = PackingState(inst, 0.0)
        rank = rank_from_order(np.arange(inst.num_services))
        bins = np.arange(inst.num_nodes)
        ok_fast = permutation_pack(fast, rank, bins,
                                   rank_bins_by_remaining=hetero)
        ok_naive = permutation_pack_naive(naive, rank, bins,
                                          rank_bins_by_remaining=hetero)
        assert ok_fast == ok_naive
        np.testing.assert_array_equal(fast.assignment, naive.assignment)


@pytest.mark.parametrize("seed", range(4))
def test_naive_matches_fast_with_item_sort(seed):
    from repro.algorithms.vector_packing.sorting import (
        SortStrategy, MAX, order_indices)
    inst = random_instance(seed + 100)
    state_f = PackingState(inst, 0.0)
    state_n = PackingState(inst, 0.0)
    order = order_indices(state_f.item_agg, SortStrategy(MAX, descending=True))
    rank = rank_from_order(order)
    bins = np.arange(inst.num_nodes)
    assert (permutation_pack(state_f, rank, bins)
            == permutation_pack_naive(state_n, rank, bins))
    np.testing.assert_array_equal(state_f.assignment, state_n.assignment)
