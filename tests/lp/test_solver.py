"""Tests for the exact MILP and relaxation solvers on verifiable instances."""

import numpy as np
import pytest

from repro.core import Node, ProblemInstance, Service
from repro.core.exceptions import InfeasibleProblemError, SolverError
from repro.lp import (
    placement_probabilities,
    solve_exact,
    solve_relaxation,
)


def figure1_instance():
    nodes = [
        Node.multicore(4, 0.8, 1.0, name="A"),
        Node.multicore(2, 1.0, 0.5, name="B"),
    ]
    services = [
        Service.from_vectors([0.5, 0.5], [1.0, 0.5], [0.5, 0.0], [1.0, 0.0]),
    ]
    return ProblemInstance(nodes, services)


class TestExact:
    def test_figure1_optimum_is_node_b_yield_1(self):
        sol = solve_exact(figure1_instance())
        assert sol.min_yield == pytest.approx(1.0, abs=1e-6)
        assert sol.placement().tolist() == [1]
        alloc = sol.to_allocation()
        alloc.validate()
        assert alloc.minimum_yield() == pytest.approx(1.0, abs=1e-6)

    def test_two_competing_services_split_across_nodes(self):
        # Two copies of the Figure-1 service. One per node is forced by
        # memory on B (0.5) and by CPU aggregation. Min yield: the one on A
        # is limited to 0.6 by the elementary CPU constraint.
        inst = ProblemInstance(
            [Node.multicore(4, 0.8, 1.0), Node.multicore(2, 1.0, 0.5)],
            [Service.from_vectors([0.5, 0.25], [1.0, 0.25],
                                  [0.5, 0.0], [1.0, 0.0])] * 2)
        sol = solve_exact(inst)
        assert sorted(sol.placement().tolist()) == [0, 1]
        assert sol.min_yield == pytest.approx(0.6, abs=1e-6)

    def test_single_node_aggregate_split(self):
        # One quad-core node, two identical CPU-hungry services; optimum
        # shares the aggregate equally.
        inst = ProblemInstance(
            [Node.multicore(4, 0.5, 1.0)],  # agg CPU 2.0
            [Service.from_vectors([0.1, 0.1], [0.5, 0.1],
                                  [0.1, 0.0], [1.0, 0.0])] * 2)
        sol = solve_exact(inst)
        # 2*(0.5 + y*1.0) <= 2.0 -> y = 0.5
        assert sol.min_yield == pytest.approx(0.5, abs=1e-6)

    def test_infeasible_raises(self):
        inst = ProblemInstance(
            [Node.multicore(1, 0.5, 0.5)],
            [Service.from_vectors([0.9, 0.1], [0.9, 0.1],
                                  [0.0, 0.0], [0.0, 0.0])])
        with pytest.raises(InfeasibleProblemError):
            solve_exact(inst)

    def test_memory_infeasible_raises(self):
        inst = ProblemInstance(
            [Node.multicore(1, 1.0, 0.4)],
            [Service.from_vectors([0.1, 0.3], [0.1, 0.3],
                                  [0.0, 0.0], [0.0, 0.0])] * 2)
        with pytest.raises(InfeasibleProblemError):
            solve_exact(inst)

    def test_solution_validates_as_allocation(self):
        rng = np.random.default_rng(7)
        nodes = [Node.multicore(4, 0.25, 1.0) for _ in range(3)]
        services = [
            Service.from_vectors(
                [0.05, rng.uniform(0.05, 0.2)],
                [rng.uniform(0.1, 0.3), rng.uniform(0.05, 0.2)],
                [0.05, 0.0],
                [rng.uniform(0.1, 0.5), 0.0])
            for _ in range(6)
        ]
        sol = solve_exact(ProblemInstance(nodes, services))
        sol.to_allocation().validate()


class TestRelaxation:
    def test_relaxation_bounds_exact(self):
        inst = ProblemInstance(
            [Node.multicore(4, 0.8, 1.0), Node.multicore(2, 1.0, 0.5)],
            [Service.from_vectors([0.5, 0.25], [1.0, 0.25],
                                  [0.5, 0.0], [1.0, 0.0])] * 2)
        relaxed = solve_relaxation(inst)
        exact = solve_exact(inst)
        assert relaxed.min_yield >= exact.min_yield - 1e-9

    def test_relaxed_e_is_fractional_distribution(self):
        inst = ProblemInstance(
            [Node.multicore(4, 0.8, 1.0), Node.multicore(2, 1.0, 0.5)],
            [Service.from_vectors([0.5, 0.25], [1.0, 0.25],
                                  [0.5, 0.0], [1.0, 0.0])] * 2)
        sol = solve_relaxation(inst)
        np.testing.assert_allclose(sol.e.sum(axis=1), 1.0, atol=1e-6)
        assert not sol.integral

    def test_to_allocation_rejected_for_fractional(self):
        sol = solve_relaxation(figure1_instance())
        if not sol.integral:
            with pytest.raises(SolverError):
                sol.to_allocation()


class TestPlacementProbabilities:
    def test_rows_sum_to_one(self):
        sol = solve_relaxation(figure1_instance())
        probs = placement_probabilities(sol)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_epsilon_floor_creates_support(self):
        sol = solve_relaxation(figure1_instance())
        probs = placement_probabilities(sol, epsilon=0.01)
        # Both nodes fit the requirements, so both get positive probability.
        assert (probs > 0).all()

    def test_forbidden_nodes_stay_zero_under_epsilon(self):
        inst = ProblemInstance(
            [Node.multicore(1, 0.5, 0.5), Node.multicore(2, 1.0, 1.0)],
            [Service.from_vectors([0.9, 0.1], [0.9, 0.1],
                                  [0.1, 0.0], [0.1, 0.0])])
        sol = solve_relaxation(inst)
        probs = placement_probabilities(sol, epsilon=0.01)
        assert probs[0, 0] == 0.0
        assert probs[0, 1] == pytest.approx(1.0)
