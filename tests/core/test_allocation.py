"""Tests for Allocation validity, yield accounting and node-level max-min."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Allocation,
    Node,
    ProblemInstance,
    Service,
    UNPLACED,
)
from repro.core.allocation import max_min_yield_on_node, node_loads
from repro.core.exceptions import InvalidAllocationError
from repro.core.node import NodeArray
from repro.core.service import ServiceArray


def two_node_instance():
    nodes = [
        Node.multicore(4, 0.8, 1.0, name="A"),
        Node.multicore(2, 1.0, 0.5, name="B"),
    ]
    services = [
        Service.from_vectors([0.5, 0.5], [1.0, 0.5], [0.5, 0.0], [1.0, 0.0],
                             name="svc"),
    ]
    return ProblemInstance(nodes, services)


class TestAllocationBasics:
    def test_uniform_constructor(self):
        inst = two_node_instance()
        alloc = Allocation.uniform(inst, [0], 0.5)
        assert alloc.yields.tolist() == [0.5]
        assert alloc.complete

    def test_unplaced_has_zero_yield(self):
        inst = two_node_instance()
        alloc = Allocation.uniform(inst, [UNPLACED], 0.5)
        assert alloc.yields.tolist() == [0.0]
        assert not alloc.complete

    def test_minimum_yield(self):
        inst = two_node_instance()
        alloc = Allocation.uniform(inst, [1], 1.0)
        assert alloc.minimum_yield() == 1.0

    def test_minimum_yield_incomplete_raises(self):
        inst = two_node_instance()
        alloc = Allocation.uniform(inst, [UNPLACED], 0.0)
        with pytest.raises(InvalidAllocationError):
            alloc.minimum_yield()

    def test_bad_shapes_rejected(self):
        inst = two_node_instance()
        with pytest.raises(InvalidAllocationError):
            Allocation(inst, np.array([0, 1]), np.array([0.5, 0.5]))

    def test_out_of_range_node_rejected(self):
        inst = two_node_instance()
        with pytest.raises(InvalidAllocationError):
            Allocation(inst, np.array([7]), np.array([0.5]))

    def test_yield_above_one_rejected(self):
        inst = two_node_instance()
        with pytest.raises(InvalidAllocationError):
            Allocation(inst, np.array([0]), np.array([1.5]))


class TestValidation:
    def test_valid_allocation_passes(self):
        inst = two_node_instance()
        Allocation.uniform(inst, [0], 0.6).validate()

    def test_elementary_violation_detected(self):
        inst = two_node_instance()
        # On node A the elementary CPU binds at yield 0.6; 0.7 must fail.
        alloc = Allocation.uniform(inst, [0], 0.7)
        with pytest.raises(InvalidAllocationError, match="elementary"):
            alloc.validate()

    def test_aggregate_violation_detected(self):
        # Two copies of the Figure-1 service saturate node B's aggregate CPU
        # at yield 0 (2 * 1.0 req == 2.0 cap); but memory (2 * 0.5 = 1.0)
        # exceeds node B's 0.5 memory.
        nodes = [Node.multicore(2, 1.0, 0.5)]
        svc = Service.from_vectors([0.5, 0.25], [1.0, 0.25],
                                   [0.5, 0.0], [1.0, 0.0])
        inst = ProblemInstance(nodes, [svc, svc])
        alloc = Allocation.uniform(inst, [0, 0], 0.1)
        with pytest.raises(InvalidAllocationError, match="aggregate"):
            alloc.validate()

    def test_incomplete_fails_when_required(self):
        inst = two_node_instance()
        alloc = Allocation.uniform(inst, [UNPLACED], 0.0)
        with pytest.raises(InvalidAllocationError, match="unplaced"):
            alloc.validate()
        # ...but passes with require_complete=False (vacuously valid).
        alloc.validate(require_complete=False)

    def test_is_valid_boolean(self):
        inst = two_node_instance()
        assert Allocation.uniform(inst, [0], 0.6).is_valid()
        assert not Allocation.uniform(inst, [0], 0.7).is_valid()


class TestNodeLoads:
    def test_loads_accumulate_duplicates(self):
        nodes = [Node.multicore(4, 1.0, 1.0)]
        svc = Service.from_vectors([0.1, 0.1], [0.2, 0.1],
                                   [0.0, 0.0], [0.0, 0.0])
        inst = ProblemInstance(nodes, [svc, svc, svc])
        loads = node_loads(inst, np.array([0, 0, 0]), np.zeros(3))
        np.testing.assert_allclose(loads, [[0.6, 0.3]])

    def test_unplaced_contribute_nothing(self):
        inst = two_node_instance()
        loads = node_loads(inst, np.array([UNPLACED]), np.zeros(1))
        np.testing.assert_allclose(loads, np.zeros((2, 2)))


class TestMaxMinYieldOnNode:
    """Closed-form per-node max-min yield, checked against Figure 1."""

    def figure1_args(self, node):
        svc_re = np.array([[0.5, 0.5]])
        svc_ra = np.array([[1.0, 0.5]])
        svc_ne = np.array([[0.5, 0.0]])
        svc_na = np.array([[1.0, 0.0]])
        return (node.elementary, node.aggregate, svc_re, svc_ra, svc_ne, svc_na)

    def test_figure1_node_a_yield(self):
        node_a = Node.multicore(4, 0.8, 1.0)
        y = max_min_yield_on_node(*self.figure1_args(node_a))
        assert y == pytest.approx(0.6)

    def test_figure1_node_b_yield(self):
        node_b = Node.multicore(2, 1.0, 0.5)
        y = max_min_yield_on_node(*self.figure1_args(node_b))
        assert y == pytest.approx(1.0)

    def test_empty_service_set_yields_one(self):
        node = Node.multicore(4, 0.8, 1.0)
        empty = np.zeros((0, 2))
        assert max_min_yield_on_node(node.elementary, node.aggregate,
                                     empty, empty, empty, empty) == 1.0

    def test_infeasible_requirements_return_negative(self):
        node = Node.multicore(1, 0.5, 0.5)
        y = max_min_yield_on_node(
            node.elementary, node.aggregate,
            np.array([[0.9, 0.1]]), np.array([[0.9, 0.1]]),
            np.zeros((1, 2)), np.zeros((1, 2)))
        assert y == -1.0

    def test_aggregate_constraint_binds(self):
        # One big node, two services whose elementary fits easily; the
        # shared aggregate CPU limits the uniform yield.
        node = Node.multicore(2, 1.0, 1.0)  # agg CPU 2.0
        req_e = np.array([[0.1, 0.1], [0.1, 0.1]])
        req_a = np.array([[0.5, 0.1], [0.5, 0.1]])
        need_e = np.array([[0.5, 0.0], [0.5, 0.0]])
        need_a = np.array([[1.0, 0.0], [1.0, 0.0]])
        y = max_min_yield_on_node(node.elementary, node.aggregate,
                                  req_e, req_a, need_e, need_a)
        # 1.0 (req) + y * 2.0 (needs) <= 2.0 -> y = 0.5
        assert y == pytest.approx(0.5)

    def test_zero_needs_gives_yield_one_if_feasible(self):
        node = Node.multicore(4, 1.0, 1.0)
        y = max_min_yield_on_node(
            node.elementary, node.aggregate,
            np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]),
            np.zeros((1, 2)), np.zeros((1, 2)))
        assert y == 1.0

    @settings(max_examples=60)
    @given(
        req=st.floats(min_value=0.0, max_value=0.4),
        need=st.floats(min_value=0.001, max_value=1.0),
        k=st.integers(min_value=1, max_value=5),
    )
    def test_result_always_saturates_or_caps(self, req, need, k):
        """The computed yield is feasible and cannot be increased."""
        node = Node.multicore(4, 0.5, 1.0)  # agg CPU 2.0, mem 1.0
        req_e = np.full((k, 2), [req, 0.1 / k])
        req_a = np.full((k, 2), [req, 0.1 / k])
        need_e = np.full((k, 2), [need, 0.0])
        need_a = np.full((k, 2), [need, 0.0])
        y = max_min_yield_on_node(node.elementary, node.aggregate,
                                  req_e, req_a, need_e, need_a)
        assert -1.0 <= y <= 1.0
        if y >= 0:
            # Feasible at y...
            assert (req_e + y * need_e <= node.elementary + 1e-9).all()
            assert ((req_a + y * need_a).sum(axis=0)
                    <= node.aggregate + 1e-9).all()
            if y < 1.0:
                # ...and infeasible at y + eps (some constraint is tight).
                y2 = y + 1e-6
                elem_ok = (req_e + y2 * need_e <= node.elementary + 1e-12).all()
                agg_ok = ((req_a + y2 * need_a).sum(axis=0)
                          <= node.aggregate + 1e-12).all()
                assert not (elem_ok and agg_ok)


def per_node_improve(alloc):
    """``improve_yields`` as a loop of :func:`max_min_yield_on_node` over
    nodes, each on its members in ascending service order: the oracle
    the one-pass version must match bit for bit."""
    inst, sv = alloc.instance, alloc.instance.services
    new_yields = alloc.yields.copy()
    for h in range(inst.num_nodes):
        members = np.flatnonzero(alloc.placement == h)
        if members.size == 0:
            continue
        y = max_min_yield_on_node(
            inst.nodes.elementary[h], inst.nodes.aggregate[h],
            sv.req_elem[members], sv.req_agg[members],
            sv.need_elem[members], sv.need_agg[members])
        if y >= 0:
            new_yields[members] = np.maximum(new_yields[members], y)
    return new_yields


@st.composite
def improvable_allocations(draw):
    """Any-D allocations with unplaced services, empty nodes, nodes
    whose requirements do not fit, and (at D = 1, where numpy sums a
    node's column pairwise) nodes of 9 and of more than 128 members."""
    D = draw(st.sampled_from([1, 2, 3, 5]))
    H = draw(st.integers(1, 6))
    big = draw(st.sampled_from([0, 9, 40, 150]))
    J = big + draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amounts = np.array([0.0, -0.0, 0.001, 0.02, 0.05, 0.1, 0.3, 0.6])
    req = rng.choice(amounts, size=(J, D)) * 0.2
    need = rng.choice(amounts, size=(J, D))
    cap = rng.uniform(0.0, 2.0, size=(H, D)) * rng.choice([0.05, 1.0, 8.0])
    elem = cap * rng.choice([0.02, 0.3, 1.0], size=(H, 1))
    inst = ProblemInstance(NodeArray.from_arrays(elem, cap),
                           ServiceArray.from_arrays(req, req, need, need))
    placement = rng.integers(-1, H, size=J)
    placement[:big] = 0            # one crowded node
    if H > 1:
        placement[placement == H - 1] = H - 2   # one empty node
    yields = np.where(placement >= 0,
                      rng.choice([0.0, -0.0, 0.25, 1.0], size=J), 0.0)
    return Allocation(inst, placement, yields)


class TestImproveYields:
    @settings(max_examples=150, deadline=None)
    @given(alloc=improvable_allocations())
    def test_matches_the_per_node_loop_bit_for_bit(self, alloc):
        got = alloc.improve_yields()
        assert got.yields.tobytes() == per_node_improve(alloc).tobytes()
        assert np.array_equal(got.placement, alloc.placement)

    def test_crowded_d1_node_sums_pairwise(self):
        """At D = 1 a node's requirements are one column, which numpy
        sums pairwise; 150 members on a binding node expose any other
        order."""
        rng = np.random.default_rng(5)
        J = 150
        req = rng.uniform(0.0, 0.01, size=(J, 1))
        need = rng.uniform(0.0, 0.03, size=(J, 1))
        cap = np.array([[req.sum() + need.sum() * 0.6], [1.0]])
        inst = ProblemInstance(NodeArray.from_arrays(cap, cap),
                               ServiceArray.from_arrays(req, req, need, need))
        alloc = Allocation.uniform(inst, np.zeros(J, dtype=np.int64), 0.0)
        got = alloc.improve_yields().yields
        assert got.tobytes() == per_node_improve(alloc).tobytes()
        assert 0.0 < got[0] < 1.0

    def test_improve_raises_to_node_optimum(self):
        inst = two_node_instance()
        alloc = Allocation.uniform(inst, [1], 0.3).improve_yields()
        assert alloc.minimum_yield() == pytest.approx(1.0)
        alloc.validate()

    def test_improve_never_lowers(self):
        # A certified uniform yield stays even if the closed form cannot
        # improve it.
        inst = two_node_instance()
        alloc = Allocation.uniform(inst, [0], 0.6).improve_yields()
        assert alloc.minimum_yield() >= 0.6 - 1e-12


class TestProblemInstance:
    def test_dims_mismatch_rejected(self):
        from repro.core.exceptions import DimensionMismatchError
        nodes = [Node.from_vectors([1.0], [2.0])]
        svc = Service.from_vectors([0.5, 0.5], [1.0, 0.5],
                                   [0.5, 0.0], [1.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            ProblemInstance(nodes, [svc])

    def test_totals(self):
        inst = two_node_instance()
        np.testing.assert_allclose(inst.total_capacity(), [5.2, 1.5])
        np.testing.assert_allclose(inst.total_requirements(), [1.0, 0.5])
        np.testing.assert_allclose(inst.total_needs(), [1.0, 0.0])

    def test_yield_upper_bound(self):
        inst = two_node_instance()
        # CPU: (5.2 - 1.0) / 1.0 = 4.2 -> clamp to 1; memory need is 0.
        assert inst.yield_upper_bound() == 1.0

    def test_yield_upper_bound_binding(self):
        nodes = [Node.multicore(2, 0.5, 1.0)]  # agg CPU 1.0
        svc = Service.from_vectors([0.1, 0.1], [0.4, 0.1],
                                   [0.1, 0.0], [0.4, 0.0])
        inst = ProblemInstance(nodes, [svc, svc])
        # CPU: (1.0 - 0.8) / 0.8 = 0.25
        assert inst.yield_upper_bound() == pytest.approx(0.25)

    def test_replace_services(self):
        inst = two_node_instance()
        inst2 = inst.replace_services(inst.services)
        assert inst2.nodes is inst.nodes
