"""Tests for the per-strategy META* engine and its shared-probe state.

Covers: the per-instance yield-threshold tables against directly-computed
per-probe state, the engine selector against the per-strategy engine and
a direct-comparison oracle, adaptive strategy ordering, outcome
memoization, the legacy-vs-vectorized kernel equivalence, and the
packer/validator tolerance unification.
"""

import numpy as np
import pytest

from repro.algorithms.vector_packing import (
    FastProbeContext,
    MetaProbeEngine,
    PackingState,
    ProbeContext,
    SortStrategy,
    VPStrategy,
    YieldProbeFactory,
    hvp_light_strategies,
    hvp_strategies,
    rank_from_order,
)
from repro.algorithms.vector_packing.legacy import (
    legacy_best_fit,
    legacy_first_fit,
    legacy_permutation_pack,
)
from repro.algorithms.vector_packing.best_fit import best_fit
from repro.algorithms.vector_packing.first_fit import first_fit
from repro.algorithms.vector_packing.meta import MetaSolver
from repro.algorithms.vector_packing.permutation_pack import permutation_pack
from repro.algorithms.vector_packing.sorting import MAX, SUM, order_indices
from repro.algorithms.yield_search import binary_search_max_yield
from repro.core import Allocation, Node, ProblemInstance, Service
from repro.core.resources import FEASIBILITY_ATOL
from repro.workloads import ScenarioConfig, generate_instance


def random_instance(seed, hosts=6, services=16):
    rng = np.random.default_rng(seed)
    nodes = [Node.multicore(int(rng.integers(2, 6)),
                            rng.uniform(0.05, 0.3), rng.uniform(0.3, 1.0))
             for _ in range(hosts)]
    svcs = []
    for _ in range(services):
        mem = rng.uniform(0.02, 0.2)
        cpu = rng.uniform(0.02, 0.2)
        need = rng.uniform(0.05, 0.4)
        svcs.append(Service.from_vectors(
            [0.01, mem], [cpu, mem], [0.02, 0.0], [need, 0.0]))
    return ProblemInstance(nodes, svcs)


class TestYieldProbeFactory:
    @pytest.mark.parametrize("seed", range(4))
    def test_elem_table_matches_direct_state(self, seed):
        inst = random_instance(seed)
        factory = YieldProbeFactory(inst)
        for y in (0.0, 0.17, 0.5, 0.93, 1.0):
            direct = PackingState(inst, y).elem_ok
            np.testing.assert_array_equal(factory.y_elem_max >= y, direct)

    @pytest.mark.parametrize("seed", range(4))
    def test_trivial_infeasibility_matches_state(self, seed):
        inst = random_instance(seed)
        factory = YieldProbeFactory(inst)
        for y in np.linspace(0.0, 1.0, 21):
            expected = PackingState(inst, y).trivially_infeasible()
            assert (factory.probe(float(y)) is None) == expected

    def test_elem_table_only_shrinks_as_y_grows(self):
        inst = random_instance(7)
        factory = YieldProbeFactory(inst)
        prev = None
        for y in np.linspace(0.0, 1.0, 11):
            ok = factory.y_elem_max >= y
            if prev is not None:
                assert not (ok & ~prev).any()   # no pair starts fitting
            prev = ok

    def test_bin_orders_are_shared_across_probes(self):
        inst = random_instance(3)
        factory = YieldProbeFactory(inst)
        sort = SortStrategy(MAX)
        a = factory.probe(0.0).bin_order(sort)
        b = factory.probe(0.5).bin_order(sort)
        assert a is b

    def test_rejects_foreign_factory(self):
        a, b = random_instance(0), random_instance(1)
        with pytest.raises(ValueError):
            MetaProbeEngine(a, hvp_light_strategies(),
                            factory=YieldProbeFactory(b))


class TestFastProbeContext:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_seed_probe_context(self, seed):
        """Every strategy answers identically through both contexts."""
        inst = random_instance(seed)
        factory = YieldProbeFactory(inst)
        for y in (0.0, 0.3):
            fast = factory.probe(y)
            slow = ProbeContext(inst, y)
            assert isinstance(fast, FastProbeContext)
            for strategy in hvp_light_strategies()[::7]:
                a = fast.run(strategy)
                b = slow.run(strategy)
                if a is None or b is None:
                    assert a is None and b is None
                else:
                    np.testing.assert_array_equal(a, b)

    def test_memoized_outcome_returned_for_identical_inputs(self):
        inst = random_instance(2)
        ctx = YieldProbeFactory(inst).probe(0.0)
        strat = hvp_light_strategies()[0]
        first = ctx.run(strat)
        again = ctx.run(strat)
        np.testing.assert_array_equal(first, again)
        assert first is not again   # cached hit returns a fresh copy


class TestEngineEquivalence:
    GRID = [ScenarioConfig(hosts=6, services=18, cov=cov, slack=slack,
                           seed=2012, instance_index=0)
            for cov in (0.25, 0.75) for slack in (0.4, 0.7)]

    @pytest.mark.parametrize("cfg", GRID, ids=lambda c: c.label())
    def test_metahvp_certified_yields_match(self, cfg):
        """The selector's engine (fused wherever the backend has the
        kernel) certifies exactly what the per-strategy engine does."""
        inst = generate_instance(cfg)
        strategies = hvp_strategies()
        stats: dict = {}
        got = MetaSolver(strategies, improve=False).solve_with_hint(
            inst, stats=stats)
        ref_engine = MetaProbeEngine(inst, strategies)
        ref = binary_search_max_yield(inst, ref_engine, improve=False)
        assert (got is None) == (ref is None)
        if ref is not None:
            np.testing.assert_array_equal(got.placement, ref.placement)
            np.testing.assert_array_equal(got.yields, ref.yields)
        assert stats["probes"] == ref_engine.probes

    @pytest.mark.parametrize("seed", range(3))
    def test_single_strategy_engines_agree(self, seed):
        """One-strategy searches match a stateless direct-comparison
        oracle (a fresh :class:`ProbeContext` per probe)."""
        inst = random_instance(seed, hosts=5, services=12)
        for strategy in hvp_strategies()[::41]:
            got = MetaSolver((strategy,), improve=False)(inst)

            def direct(instance, y, strategy=strategy):
                return ProbeContext(instance, y).run(strategy)

            ref = binary_search_max_yield(inst, direct, improve=False)
            assert (got is None) == (ref is None)
            if ref is not None:
                np.testing.assert_array_equal(got.placement, ref.placement)
                np.testing.assert_array_equal(got.yields, ref.yields)


class TestAdaptiveOrdering:
    def test_hint_collapses_feasible_probe_scans(self):
        inst = random_instance(11, hosts=8, services=20)
        strategies = hvp_strategies()
        engine = MetaProbeEngine(inst, strategies)
        alloc = binary_search_max_yield(inst, engine)
        assert alloc is not None
        assert engine.hint is not None
        assert 0 <= engine.hint < len(strategies)
        # Without adaptivity + memoization every probe would execute all
        # strategies until first success (feasible) or all 253
        # (infeasible); the engine must do far better than the worst case.
        assert engine.strategy_runs < engine.probes * len(strategies) / 2

    def test_stateful_engine_answers_match_stateless_oracle(self):
        """The hint must never change a probe's feasibility answer."""
        inst = random_instance(13)
        strategies = hvp_light_strategies()
        engine = MetaProbeEngine(inst, strategies)
        for y in np.linspace(0.0, 1.0, 15):
            fast = engine(inst, float(y))
            # A fresh engine per probe has no hint: list-order scan.
            slow = MetaProbeEngine(inst, strategies)(inst, float(y))
            assert (fast is None) == (slow is None)


class TestKernelEquivalence:
    """Vectorized kernels must place exactly like the seed kernels."""

    @pytest.mark.parametrize("seed", range(6))
    def test_first_fit(self, seed):
        inst = random_instance(seed)
        order = order_indices(
            PackingState(inst, 0.2).item_agg,
            SortStrategy(MAX, descending=True))
        bins = np.arange(inst.num_nodes)
        for y in (0.0, 0.2):
            fast, slow = PackingState(inst, y), PackingState(inst, y)
            assert (first_fit(fast, order, bins)
                    == legacy_first_fit(slow, order, bins))
            np.testing.assert_array_equal(fast.assignment, slow.assignment)
            np.testing.assert_allclose(fast.loads, slow.loads, rtol=0,
                                       atol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_best_fit(self, seed):
        inst = random_instance(seed)
        order = np.arange(inst.num_services)
        for hetero in (False, True):
            fast, slow = PackingState(inst, 0.1), PackingState(inst, 0.1)
            assert (best_fit(fast, order, by_remaining_capacity=hetero)
                    == legacy_best_fit(slow, order,
                                       by_remaining_capacity=hetero))
            np.testing.assert_array_equal(fast.assignment, slow.assignment)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("window,cp", [(None, False), (1, False),
                                           (2, True)])
    def test_permutation_pack(self, seed, window, cp):
        inst = random_instance(seed)
        order = order_indices(PackingState(inst, 0.0).item_agg,
                              SortStrategy(SUM, descending=True))
        rank = rank_from_order(order)
        bins = np.arange(inst.num_nodes)
        for hetero in (False, True):
            fast, slow = PackingState(inst, 0.1), PackingState(inst, 0.1)
            ok_fast = permutation_pack(
                fast, rank, bins, window=window, choose_pack=cp,
                rank_bins_by_remaining=hetero)
            ok_slow = legacy_permutation_pack(
                slow, rank, bins, window=window, choose_pack=cp,
                rank_bins_by_remaining=hetero)
            assert ok_fast == ok_slow
            np.testing.assert_array_equal(fast.assignment, slow.assignment)


class TestToleranceUnification:
    """Regression for the packer/validator feasibility-epsilon mismatch.

    The seed packers used an absolute 1e-12 epsilon while allocation
    validation granted ``rtol*max(cap, 1) + atol`` (1e-9 scale), so a
    demand overshooting capacity by e.g. 5e-10 validated fine but no
    packer would place it.  Both now share the same tolerance.
    """

    def boundary_instance(self):
        overshoot = 5e-10            # > 1e-12, within the validator slack
        return ProblemInstance(
            [Node.multicore(1, 0.5, 0.5)],
            [Service.from_vectors(
                [0.5 + overshoot, 0.5], [0.5 + overshoot, 0.5],
                [0.0, 0.0], [0.0, 0.0])])

    def test_packer_accepts_what_validator_accepts(self):
        inst = self.boundary_instance()
        state = PackingState(inst, 0.0)
        assert not state.trivially_infeasible()
        assert state.bins_fitting_item(0).tolist() == [True]

    def test_boundary_placement_validates(self):
        inst = self.boundary_instance()
        strat = VPStrategy("FF", SortStrategy(MAX, descending=True))
        ctx = YieldProbeFactory(inst).probe(0.0)
        placement = ctx.run(strat)
        assert placement is not None
        Allocation.uniform(inst, placement, 0.0).validate()

    def test_beyond_tolerance_still_rejected(self):
        inst = ProblemInstance(
            [Node.multicore(1, 0.5, 0.5)],
            [Service.from_vectors([0.5 + 1e-6, 0.5], [0.5 + 1e-6, 0.5],
                                  [0.0, 0.0], [0.0, 0.0])])
        state = PackingState(inst, 0.0)
        assert state.trivially_infeasible()
        assert YieldProbeFactory(inst).probe(0.0) is None

    def test_tolerance_scales_with_capacity(self):
        # Relative part: a large capacity grants proportionally more slack.
        from repro.core.resources import VectorPair
        cap = 1000.0
        inst = ProblemInstance(
            [Node(VectorPair((cap, cap), (cap, cap)))],
            [Service.from_vectors([cap * (1 + 5e-10), 1.0],
                                  [cap * (1 + 5e-10), 1.0],
                                  [0.0, 0.0], [0.0, 0.0])])
        state = PackingState(inst, 0.0)
        assert state.bins_fitting_item(0).tolist() == [True]
        assert (cap * 5e-10) > FEASIBILITY_ATOL   # absolute alone would fail
