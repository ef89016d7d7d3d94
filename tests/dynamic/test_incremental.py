"""The rules both managers apply to a live platform: the fit tables
(``masked_fit_tables``) on a whole platform and on one with churn, the
view of the up nodes (``up_platform``) and newcomer admission
(``place_newcomers``)."""

import numpy as np
import pytest

from repro.dynamic import (
    INCREMENTAL_TOL,
    masked_fit_tables,
    place_newcomers,
    up_platform,
)
from repro.kernels import get_backend
from repro.service.state import ClusterState, ServiceSpec
from repro.workloads import generate_platform


@pytest.fixture(scope="module")
def nodes():
    return generate_platform(hosts=7, cov=0.5, rng=5)


@pytest.fixture(scope="module")
def req_elem(nodes):
    """Random rows at the scale of the nodes' elementary capacities, plus
    rows sitting exactly on a node's capacity and on capacity + slack."""
    rng = np.random.default_rng(11)
    top = nodes.elementary.max(axis=0)
    rows = rng.uniform(0.0, 1.2, size=(40, nodes.elementary.shape[1])) * top
    edge = nodes.elementary[[0, 3]]
    return np.vstack([rows, edge, edge + INCREMENTAL_TOL,
                      np.nextafter(edge + INCREMENTAL_TOL, np.inf)])


def test_whole_platform_matches_the_unmasked_tables(nodes, req_elem):
    """Every node up at scale 1: the same bits as the tables built
    without a mask (``x * 1.0 == x``; AND with all-true is the
    identity)."""
    H = len(nodes)
    fit, cap = masked_fit_tables(req_elem, nodes, np.ones(H, dtype=bool),
                                 np.ones(H))
    expected_fit = (req_elem[:, None] <= nodes.elementary
                    + INCREMENTAL_TOL).all(2)
    expected_cap = nodes.aggregate + INCREMENTAL_TOL
    assert fit.dtype == bool and fit.shape == (len(req_elem), H)
    np.testing.assert_array_equal(fit, expected_fit)
    assert cap.dtype == expected_cap.dtype
    assert cap.tobytes() == expected_cap.tobytes()
    # The boundary rows: on capacity + slack fits, one ulp above does not.
    assert fit[-6, 0] and fit[-5, 3] and fit[-4, 0] and fit[-3, 3]
    assert not fit[-2, 0] and not fit[-1, 3]


def test_a_down_node_gets_no_fit_and_a_negative_cap(nodes, req_elem):
    H = len(nodes)
    avail = np.ones(H, dtype=bool)
    avail[2] = False
    scale = np.ones(H)
    scale[4] = 0.5
    fit, cap = masked_fit_tables(req_elem, nodes, avail, scale)
    assert not fit[:, 2].any()
    assert (cap[2] == -1.0).all()
    scaled = nodes.elementary * scale[:, None]
    expected_fit = (req_elem[:, None] <= scaled + INCREMENTAL_TOL).all(2)
    expected_fit[:, 2] = False
    np.testing.assert_array_equal(fit, expected_fit)
    up = np.flatnonzero(avail)
    expected_cap = nodes.aggregate * scale[:, None] + INCREMENTAL_TOL
    assert cap[up].tobytes() == expected_cap[up].tobytes()
    # The halved node fits strictly fewer rows than at full scale.
    assert fit[:, 4].sum() < (req_elem <= nodes.elementary[4]
                              + INCREMENTAL_TOL).all(1).sum()


def churned(H):
    """Node 2 down, node 4 at half capacity."""
    avail = np.ones(H, dtype=bool)
    avail[2] = False
    scale = np.ones(H)
    scale[4] = 0.5
    return avail, scale


class TestUpPlatform:
    def test_a_whole_platform_is_the_platform_itself(self, nodes):
        H = len(nodes)
        view, idx = up_platform(nodes, np.ones(H, dtype=bool), np.ones(H))
        assert view is nodes
        assert idx.tolist() == list(range(H))
        _, scale = churned(H)
        view, idx = up_platform(nodes, np.ones(H, dtype=bool), scale)
        assert view is not nodes and idx.tolist() == list(range(H))
        assert view.aggregate[4].tobytes() == \
            (nodes.aggregate[4] * 0.5).tobytes()

    def test_a_down_node_and_a_halved_node(self, nodes):
        """The simulator's view after a failure and a capacity cut: the up
        nodes' rows times their scale, bit for bit, and the map from the
        view's node indices back to the platform's."""
        avail, scale = churned(len(nodes))
        view, idx = up_platform(nodes, avail, scale)
        assert idx.tolist() == [0, 1, 3, 4, 5, 6]
        sc = scale[idx, None]
        assert view.elementary.tobytes() == \
            (nodes.elementary[idx] * sc).tobytes()
        assert view.aggregate.tobytes() == \
            (nodes.aggregate[idx] * sc).tobytes()
        assert view.names == tuple(nodes.names[i] for i in idx)
        # The index map ascends, so an up node's view index is its rank.
        assert np.searchsorted(idx, idx).tolist() == list(range(idx.size))

    def test_the_daemons_drained_view(self, nodes):
        """A drained daemon node is a down node at scale 1.0: the other
        nodes' rows exactly as the platform holds them, and the solver
        instance :meth:`ClusterState.solver_view` builds over them."""
        avail, _ = churned(len(nodes))
        view, idx = up_platform(nodes, avail, np.ones(len(nodes)))
        assert view.elementary.tobytes() == nodes.elementary[idx].tobytes()
        assert view.aggregate.tobytes() == nodes.aggregate[idx].tobytes()
        state = ClusterState(nodes)
        state.add(ServiceSpec.from_vectors(
            "s0", [0.01, 0.01], [0.01, 0.01], [0.1, 0.0], [0.1, 0.0],
            dims=2))
        assert state.solver_view()[1] is None
        state.drain_node(2)
        instance, node_map = state.solver_view()
        assert node_map.tolist() == idx.tolist()
        assert instance.nodes.elementary.tobytes() == \
            view.elementary.tobytes()
        assert instance.nodes.aggregate.tobytes() == \
            view.aggregate.tobytes()
        assert instance.nodes.names == view.names

    def test_every_node_down_is_no_platform(self, nodes):
        H = len(nodes)
        assert up_platform(nodes, np.zeros(H, dtype=bool), np.ones(H)) is None


def test_newcomers_are_fitted_and_placed_from_their_own_rows(nodes,
                                                             req_elem):
    """Fit rows are row-wise: the newcomers' rows alone are the bits a
    table over every descriptor holds for them, so admission places them
    exactly as the backend's best-fit does on that table's rows."""
    avail, scale = churned(len(nodes))
    full_fit, caps = masked_fit_tables(req_elem, nodes, avail, scale)
    newcomers = np.array([3, 17, 29, 40, 41, 44, 45])
    fit, _ = masked_fit_tables(req_elem[newcomers], nodes, avail, scale)
    assert fit.tobytes() == full_fit[newcomers].tobytes()
    req_agg = req_elem[newcomers] * 3.0
    loads0 = nodes.aggregate * 0.25
    expected_loads = loads0.copy()
    expected = get_backend().incremental_best_fit(
        req_agg, full_fit[newcomers], expected_loads, nodes.aggregate, caps)
    loads = loads0.copy()
    chosen = place_newcomers(req_elem[newcomers], req_agg, loads, nodes,
                             avail, scale)
    assert chosen.tolist() == expected.tolist()
    assert loads.tobytes() == expected_loads.tobytes()
    assert 2 not in chosen.tolist()
    assert (chosen >= 0).any() and (chosen < 0).any()
