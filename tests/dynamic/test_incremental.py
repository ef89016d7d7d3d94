"""The live-state fit tables: ``masked_fit_tables`` on a whole platform
and on one with churn."""

import numpy as np
import pytest

from repro.dynamic import INCREMENTAL_TOL, masked_fit_tables
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
