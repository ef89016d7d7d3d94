"""Tests for the MILP formulation matrices (Eqs. 1-7)."""

import numpy as np

from repro.core import Node, ProblemInstance, Service
from repro.lp.formulation import build_formulation, _forbidden_pairs


def small_instance():
    nodes = [
        Node.multicore(4, 0.8, 1.0, name="A"),
        Node.multicore(2, 1.0, 0.5, name="B"),
    ]
    services = [
        Service.from_vectors([0.5, 0.5], [1.0, 0.5], [0.5, 0.0], [1.0, 0.0]),
        Service.from_vectors([0.1, 0.1], [0.2, 0.1], [0.1, 0.0], [0.2, 0.0]),
    ]
    return ProblemInstance(nodes, services)


class TestIndices:
    def test_variable_layout(self):
        form = build_formulation(small_instance())
        J, H = 2, 2
        assert form.num_vars == 2 * J * H + 1
        assert form.e_index(0, 0) == 0
        assert form.e_index(1, 1) == 3
        assert form.y_index(0, 0) == 4
        assert form.min_yield_index == 8

    def test_split_solution_round_trip(self):
        form = build_formulation(small_instance())
        x = np.arange(form.num_vars, dtype=float)
        e, y, Y = form.split_solution(x)
        assert e[1, 0] == form.e_index(1, 0)
        assert y[0, 1] == form.y_index(0, 1)
        assert Y == form.min_yield_index


class TestObjective:
    def test_objective_maximizes_min_yield(self):
        form = build_formulation(small_instance())
        assert form.objective[form.min_yield_index] == -1.0
        assert (form.objective[:-1] == 0).all()


class TestForbiddenPairs:
    def test_oversize_requirement_is_forbidden(self):
        nodes = [Node.multicore(1, 0.5, 0.5), Node.multicore(1, 1.0, 1.0)]
        # Needs 0.9 elementary CPU: impossible on node 0, fine on node 1.
        svc = Service.from_vectors([0.9, 0.1], [0.9, 0.1],
                                   [0.0, 0.0], [0.0, 0.0])
        inst = ProblemInstance(nodes, [svc])
        forb = _forbidden_pairs(inst)
        assert forb.tolist() == [[True, False]]

    def test_aggregate_requirement_forbids(self):
        nodes = [Node.multicore(2, 0.5, 0.5)]  # agg CPU 1.0
        svc = Service.from_vectors([0.4, 0.1], [1.2, 0.1],
                                   [0.0, 0.0], [0.0, 0.0])
        inst = ProblemInstance(nodes, [svc])
        assert _forbidden_pairs(inst).tolist() == [[True]]

    def test_forbidden_fixes_bounds_to_zero(self):
        nodes = [Node.multicore(1, 0.5, 0.5), Node.multicore(1, 1.0, 1.0)]
        svc = Service.from_vectors([0.9, 0.1], [0.9, 0.1],
                                   [0.0, 0.0], [0.0, 0.0])
        inst = ProblemInstance(nodes, [svc])
        form = build_formulation(inst)
        assert form.col_upper[form.e_index(0, 0)] == 0.0
        assert form.col_upper[form.y_index(0, 0)] == 0.0
        assert form.col_upper[form.e_index(0, 1)] == 1.0


class TestConstraintEvaluation:
    """Evaluate the CSC matrix and row bounds against hand-built variable
    vectors."""

    def vector_for(self, form, placement, yields):
        """x encoding: each service j on placement[j] with yields[j]."""
        x = np.zeros(form.num_vars)
        for j, (h, y) in enumerate(zip(placement, yields)):
            x[form.e_index(j, h)] = 1.0
            x[form.y_index(j, h)] = y
        x[form.min_yield_index] = min(yields)
        return x

    def all_satisfied(self, form, x, tol=1e-9):
        col = np.repeat(np.arange(form.num_vars), np.diff(form.a_start))
        val = np.zeros(form.num_rows)
        np.add.at(val, form.a_index, form.a_value * x[col])
        return bool((val >= form.row_lower - tol).all()
                    and (val <= form.row_upper + tol).all())

    def test_feasible_point_satisfies_all(self):
        inst = small_instance()
        form = build_formulation(inst)
        # Figure-1 service on node B at yield 1.0, small service on A.
        x = self.vector_for(form, [1, 0], [1.0, 1.0])
        assert self.all_satisfied(form, x)

    def test_elementary_violation_detected(self):
        inst = small_instance()
        form = build_formulation(inst)
        # Figure-1 service on node A at yield 0.7 > 0.6 violates Eq. 5.
        x = self.vector_for(form, [0, 1], [0.7, 1.0])
        assert not self.all_satisfied(form, x)

    def test_aggregate_violation_detected(self):
        nodes = [Node.multicore(2, 1.0, 1.0)]  # agg CPU 2.0
        svc = Service.from_vectors([0.1, 0.1], [0.9, 0.1],
                                   [0.1, 0.0], [0.5, 0.0])
        inst = ProblemInstance(nodes, [svc, svc])
        form = build_formulation(inst)
        # At yield 0.5: agg CPU = 2*(0.9 + 0.25) = 2.3 > 2.0.
        x = self.vector_for(form, [0, 0], [0.5, 0.5])
        assert not self.all_satisfied(form, x)

    def test_unplaced_service_violates_placement(self):
        inst = small_instance()
        form = build_formulation(inst)
        x = np.zeros(form.num_vars)  # nothing placed: Eq. 3 fails
        assert not self.all_satisfied(form, x)

    def test_yield_without_placement_violates_link(self):
        inst = small_instance()
        form = build_formulation(inst)
        x = self.vector_for(form, [1, 0], [1.0, 1.0])
        # Sneak yield onto a node where the service is not placed (Eq. 4).
        x[form.y_index(0, 0)] = 0.5
        assert not self.all_satisfied(form, x)


class TestRelaxed:
    def test_build_integral_marks_the_e_columns(self):
        form = build_formulation(small_instance())
        assert form.integrality.tolist() == [1] * 4 + [0] * 5  # J * H e's

    def test_build_non_integral(self):
        form = build_formulation(small_instance(), integral=False)
        assert form.integrality.sum() == 0
