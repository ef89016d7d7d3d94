"""Cross-layer property-based tests: invariants that tie the model, the
LP, the packers and the yield search together on randomized instances.

These are the repository's strongest correctness guards: they assert
relationships that must hold for *any* instance, not hand-picked values.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms import metagreedy, metahvp_light, rrnd, rrnz
from repro.algorithms.vector_packing import (
    MetaProbeEngine,
    MetaSolver,
    SortStrategy,
    VPStrategy,
    run_strategy,
    vp_strategies,
)
from repro.algorithms.vector_packing.sorting import MAX
from repro.core import Allocation, Node, ProblemInstance, Service
from repro.core.exceptions import InfeasibleProblemError
from repro.lp import solve_relaxation


# ----------------------------------------------------------------------
# Random instance strategy: small but structurally diverse.
# ----------------------------------------------------------------------

@st.composite
def instances(draw):
    hosts = draw(st.integers(min_value=1, max_value=4))
    services = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    nodes = []
    for h in range(hosts):
        cores = int(rng.integers(1, 5))
        nodes.append(Node.multicore(
            cores, float(rng.uniform(0.05, 0.3)),
            float(rng.uniform(0.1, 1.0)), name=f"n{h}"))
    svcs = []
    for _ in range(services):
        mem = float(rng.uniform(0.01, 0.2))
        cpu_req = float(rng.uniform(0.0, 0.1))
        cpu_need = float(rng.uniform(0.0, 0.4))
        svcs.append(Service.from_vectors(
            [cpu_req / 2, mem], [cpu_req, mem],
            [cpu_need / 4, 0.0], [cpu_need, 0.0]))
    return ProblemInstance(nodes, svcs)


COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestPackingValidity:
    @settings(**COMMON)
    @given(instances(), st.floats(min_value=0.0, max_value=1.0))
    def test_any_successful_pack_is_valid(self, inst, y):
        """Whatever a packing strategy returns at yield y must satisfy
        every elementary and aggregate constraint at that yield."""
        strat = VPStrategy("FF", SortStrategy(MAX, descending=True))
        placement = run_strategy(strat, inst, y)
        if placement is not None:
            Allocation.uniform(inst, placement, y).validate()

    @settings(**COMMON)
    @given(instances())
    def test_binary_search_result_valid_and_bounded(self, inst):
        alloc = MetaSolver(vp_strategies())(inst)
        if alloc is not None:
            alloc.validate()
            assert 0.0 <= alloc.minimum_yield() <= 1.0


class TestLpDominance:
    @settings(**COMMON)
    @given(instances(), st.integers(min_value=0, max_value=2**31))
    def test_no_heuristic_beats_the_lp_bound(self, inst, seed):
        """The relaxed LP optimum upper-bounds every feasible allocation's
        minimum yield — heuristics and the LP's own randomized roundings
        (RRND, RRNZ) included — and every returned allocation validates."""
        algorithms = (metagreedy(), metahvp_light(), rrnd(), rrnz())
        try:
            bound = solve_relaxation(inst).min_yield
        except InfeasibleProblemError:
            # Requirements unsatisfiable: heuristics must fail too.
            assert metagreedy()(inst) is None
            for algo in algorithms[2:]:
                assert algo(inst, rng=np.random.default_rng(seed)) is None
            return
        for algo in algorithms:
            alloc = algo(inst, rng=np.random.default_rng(seed))
            if alloc is not None:
                alloc.validate()
                assert alloc.minimum_yield() <= bound + 1e-6


class TestImproveYieldsInvariants:
    @settings(**COMMON)
    @given(instances())
    def test_improvement_preserves_validity(self, inst):
        alloc = metagreedy()(inst)
        if alloc is None:
            return
        improved = alloc.improve_yields()
        improved.validate()
        assert improved.minimum_yield() >= alloc.minimum_yield() - 1e-12

    @settings(**COMMON)
    @given(instances())
    def test_improvement_is_idempotent(self, inst):
        alloc = metagreedy()(inst)
        if alloc is None:
            return
        once = alloc.improve_yields()
        twice = once.improve_yields()
        np.testing.assert_allclose(twice.yields, once.yields, atol=1e-12)


class TestFailureConsistency:
    @settings(**COMMON)
    @given(instances())
    def test_yield_zero_failure_implies_lp_infeasible(self, inst):
        """If no VP strategy can pack even the bare requirements, the LP
        must agree that requirements are unsatisfiable — and vice versa
        the LP being feasible means some packing exists (not necessarily
        found by heuristics, so only one direction is asserted)."""
        placement = MetaProbeEngine(inst, vp_strategies())(inst, 0.0)
        if placement is None:
            return  # heuristics may fail on feasible instances; no claim
        # A successful requirements-pack implies the LP is feasible.
        try:
            solve_relaxation(inst)
        except InfeasibleProblemError:
            pytest.fail("LP infeasible but a valid requirements "
                        "packing exists")
