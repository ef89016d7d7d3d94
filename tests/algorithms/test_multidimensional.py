"""The core model and packers support arbitrary D, not just the 2-D
evaluation setup — these tests exercise D = 3 and 4 (e.g. CPU, memory,
network, disk) including the PP window and Choose-Pack variants that only
become meaningful beyond two dimensions."""

import numpy as np
import pytest

from repro.algorithms import metagreedy
from repro.algorithms.vector_packing import (
    MetaSolver,
    PackingState,
    SortStrategy,
    VPStrategy,
    permutation_pack,
    rank_from_order,
    run_strategy,
)
from repro.algorithms.vector_packing.sorting import MAX, SUM
from repro.core import Allocation, Node, ProblemInstance, Service
from repro.lp import solve_exact


def instance_d(dims, seed=0, hosts=4, services=10):
    """Random instance with `dims` resource dimensions.  Dimension 0 acts
    like CPU (elementary = aggregate / 4); the rest pool."""
    rng = np.random.default_rng(seed)
    nodes = []
    for h in range(hosts):
        agg = rng.uniform(0.3, 1.0, size=dims)
        elem = agg.copy()
        elem[0] = agg[0] / 4
        nodes.append(Node.from_vectors(elem, agg, name=f"n{h}"))
    svcs = []
    for _ in range(services):
        req = rng.uniform(0.01, 0.08, size=dims)
        need = np.zeros(dims)
        need[0] = rng.uniform(0.05, 0.3)
        svcs.append(Service.from_vectors(
            req * np.array([0.25] + [1.0] * (dims - 1)), req,
            need / 4, need))
    return ProblemInstance(nodes, svcs)


@pytest.mark.parametrize("dims", [3, 4])
class TestPackersInHigherDimensions:
    def test_ff_bf_pp_all_pack(self, dims):
        inst = instance_d(dims)
        for packer in ("FF", "BF", "PP", "CP"):
            strat = VPStrategy(
                packer, SortStrategy(MAX, descending=True),
                bin_sort=(SortStrategy(SUM) if packer != "BF"
                          else SortStrategy("NONE")),
                hetero=True)
            placement = run_strategy(strat, inst, 0.0)
            assert placement is not None, packer
            Allocation.uniform(inst, placement, 0.0).validate()

    def test_pp_window_variants_pack(self, dims):
        inst = instance_d(dims, seed=1)
        for window in range(1, dims + 1):
            for cp in (False, True):
                state = PackingState(inst, 0.0)
                rank = rank_from_order(np.arange(inst.num_services))
                ok = permutation_pack(state, rank,
                                      np.arange(inst.num_nodes),
                                      window=window, choose_pack=cp)
                assert ok
                Allocation.uniform(inst, state.assignment, 0.0).validate()

    def test_binary_search_reaches_positive_yield(self, dims):
        inst = instance_d(dims, seed=2)
        strategies = [VPStrategy("PP", SortStrategy(MAX, descending=True),
                                 SortStrategy(SUM), hetero=True)]
        alloc = MetaSolver(strategies)(inst)
        assert alloc is not None
        alloc.validate()
        assert alloc.minimum_yield() > 0.0

    def test_greedy_family_works(self, dims):
        inst = instance_d(dims, seed=3)
        alloc = metagreedy()(inst)
        assert alloc is not None
        alloc.validate()


class TestMilpInHigherDimensions:
    def test_exact_solver_3d(self):
        inst = instance_d(3, seed=4, hosts=3, services=6)
        sol = solve_exact(inst)
        alloc = sol.to_allocation()
        alloc.validate()
        assert 0.0 <= sol.min_yield <= 1.0

    def test_heuristic_bounded_by_exact_3d(self):
        inst = instance_d(3, seed=5, hosts=3, services=6)
        exact = solve_exact(inst)
        strategies = [VPStrategy("PP", SortStrategy(MAX, descending=True),
                                 SortStrategy(SUM), hetero=True)]
        alloc = MetaSolver(strategies)(inst)
        if alloc is not None:
            assert alloc.minimum_yield() <= exact.min_yield + 1e-3


class TestWindowSemantics:
    def test_window_one_pp_equals_cp_in_4d(self):
        inst = instance_d(4, seed=6)
        results = []
        for cp in (False, True):
            state = PackingState(inst, 0.0)
            rank = rank_from_order(np.arange(inst.num_services))
            permutation_pack(state, rank, np.arange(inst.num_nodes),
                             window=1, choose_pack=cp)
            results.append(state.assignment.tolist())
        assert results[0] == results[1]

    def test_full_window_cp_may_differ_from_pp(self):
        """CP ignores within-window order, so with D >= 3 it can pick
        different items; we only require both to remain *valid*."""
        inst = instance_d(3, seed=7)
        for cp in (False, True):
            state = PackingState(inst, 0.0)
            rank = rank_from_order(np.arange(inst.num_services))
            ok = permutation_pack(state, rank, np.arange(inst.num_nodes),
                                  choose_pack=cp)
            if ok:
                Allocation.uniform(inst, state.assignment, 0.0).validate()

    def test_window_clamped_to_dims(self):
        inst = instance_d(2, seed=8)
        state = PackingState(inst, 0.0)
        rank = rank_from_order(np.arange(inst.num_services))
        # window larger than D must behave like full window, not crash.
        ok = permutation_pack(state, rank, np.arange(inst.num_nodes),
                              window=10)
        assert isinstance(ok, bool)
