"""Tests for strategy enumerations, binary search, and META* algorithms."""

import numpy as np
import pytest

from repro.algorithms import (
    MetaSolver,
    metahvp,
    metahvp_light,
    metavp,
)
from repro.algorithms.vector_packing import (
    SortStrategy,
    VPStrategy,
    hvp_light_strategies,
    hvp_strategies,
    vp_strategies,
)
from repro.algorithms.vector_packing.sorting import MAX
from repro.core import Node, ProblemInstance, Service
from repro.lp import solve_exact


def figure1_instance():
    return ProblemInstance(
        [Node.multicore(4, 0.8, 1.0), Node.multicore(2, 1.0, 0.5)],
        [Service.from_vectors([0.5, 0.5], [1.0, 0.5],
                              [0.5, 0.0], [1.0, 0.0])])


def shared_node_instance():
    # One quad-core node, two identical services; exact optimum y = 0.5.
    return ProblemInstance(
        [Node.multicore(4, 0.5, 1.0)],
        [Service.from_vectors([0.1, 0.1], [0.5, 0.1],
                              [0.1, 0.0], [1.0, 0.0])] * 2)


class TestEnumerations:
    def test_vp_count_is_33(self):
        strategies = vp_strategies()
        assert len(strategies) == 33
        assert len({s.name for s in strategies}) == 33
        assert all(not s.hetero for s in strategies)

    def test_hvp_count_is_253(self):
        strategies = hvp_strategies()
        assert len(strategies) == 253
        assert len({s.name for s in strategies}) == 253
        assert all(s.hetero for s in strategies)

    def test_light_count_is_60(self):
        strategies = hvp_light_strategies()
        assert len(strategies) == 60
        assert len({s.name for s in strategies}) == 60

    def test_light_is_subset_of_hvp(self):
        full = {s.name for s in hvp_strategies()}
        light = {s.name for s in hvp_light_strategies()}
        assert light <= full

    def test_bf_rejects_bin_sort(self):
        with pytest.raises(ValueError):
            VPStrategy("BF", SortStrategy(MAX), bin_sort=SortStrategy(MAX))

    def test_unknown_packer_rejected(self):
        with pytest.raises(ValueError):
            VPStrategy("XX", SortStrategy(MAX))


class TestBinarySearch:
    def test_figure1_reaches_yield_one(self):
        alloc = MetaSolver(hvp_strategies())(figure1_instance())
        assert alloc is not None
        assert alloc.minimum_yield() == pytest.approx(1.0, abs=1e-3)

    def test_matches_exact_optimum_on_shared_node(self):
        inst = shared_node_instance()
        exact = solve_exact(inst).min_yield
        alloc = MetaSolver(hvp_strategies())(inst)
        assert alloc is not None
        assert alloc.minimum_yield() == pytest.approx(exact, abs=1e-3)

    def test_tolerance_controls_precision(self):
        inst = shared_node_instance()
        coarse = MetaSolver(vp_strategies(), tolerance=0.1,
                            improve=False)(inst)
        fine = MetaSolver(vp_strategies(), tolerance=1e-5,
                          improve=False)(inst)
        assert fine.minimum_yield() >= coarse.minimum_yield() - 1e-12
        assert fine.minimum_yield() == pytest.approx(0.5, abs=1e-4)

    def test_infeasible_requirements_return_none(self):
        inst = ProblemInstance(
            [Node.multicore(1, 0.5, 0.5)],
            [Service.from_vectors([0.9, 0.1], [0.9, 0.1],
                                  [0.0, 0.0], [0.0, 0.0])])
        assert MetaSolver(hvp_strategies())(inst) is None

    def test_improve_pass_never_hurts(self):
        inst = shared_node_instance()
        raw = MetaSolver(vp_strategies(), improve=False)(inst)
        improved = MetaSolver(vp_strategies(), improve=True)(inst)
        assert improved.minimum_yield() >= raw.minimum_yield() - 1e-12

    def test_result_always_validates(self):
        inst = shared_node_instance()
        alloc = MetaSolver(vp_strategies())(inst)
        alloc.validate()


class TestMetaAlgorithms:
    def test_metavp_solves_figure1(self):
        alloc = metavp()(figure1_instance())
        assert alloc.minimum_yield() == pytest.approx(1.0, abs=1e-3)

    def test_metahvp_solves_figure1(self):
        alloc = metahvp()(figure1_instance())
        assert alloc.minimum_yield() == pytest.approx(1.0, abs=1e-3)

    def test_metahvp_light_solves_figure1(self):
        alloc = metahvp_light()(figure1_instance())
        assert alloc.minimum_yield() == pytest.approx(1.0, abs=1e-3)

    def test_metahvp_dominates_single_strategy(self):
        inst = heterogeneous_instance()
        single = MetaSolver((hvp_strategies()[20],))
        meta = metahvp()
        s_alloc = single(inst)
        m_alloc = meta(inst)
        assert m_alloc is not None
        if s_alloc is not None:
            assert (m_alloc.minimum_yield()
                    >= s_alloc.minimum_yield() - 1e-3)

    def test_names(self):
        assert metavp().name == "METAVP"
        assert metahvp().name == "METAHVP"
        assert metahvp_light().name == "METAHVPLIGHT"


def heterogeneous_instance(seed=42, hosts=6, services=12):
    rng = np.random.default_rng(seed)
    nodes = [
        Node.multicore(4, rng.uniform(0.05, 0.25),
                       rng.uniform(0.3, 1.0))
        for _ in range(hosts)
    ]
    svcs = []
    for _ in range(services):
        cpu_req = rng.uniform(0.01, 0.05)
        mem = rng.uniform(0.02, 0.12)
        cpu_need = rng.uniform(0.05, 0.3)
        svcs.append(Service.from_vectors(
            [0.01, mem], [cpu_req, mem],
            [0.02, 0.0], [cpu_need, 0.0]))
    return ProblemInstance(nodes, svcs)


class TestOnRandomInstances:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_meta_allocations_valid(self, seed):
        inst = heterogeneous_instance(seed)
        for algo in (metavp(), metahvp_light()):
            alloc = algo(inst)
            if alloc is not None:
                alloc.validate()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_metahvp_at_least_matches_metavp(self, seed):
        """§5: METAHVP solves everything METAVP solves, at least as well."""
        inst = heterogeneous_instance(seed)
        vp_alloc = metavp()(inst)
        hvp_alloc = metahvp()(inst)
        if vp_alloc is not None:
            assert hvp_alloc is not None
            assert (hvp_alloc.minimum_yield()
                    >= vp_alloc.minimum_yield() - 1e-3)
