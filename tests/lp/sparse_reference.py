"""The Eq. 1-7 model as ``scipy.optimize.milp`` takes it: the reference
the direct CSC build is checked against.

This is the ``scipy.sparse``/``LinearConstraint`` builder the package
used before it passed its arrays to HiGHS itself.  ``milp_arrays``
returns what ``milp``'s input validation (``_milp_iv``) hands to HiGHS,
so the tests compare the direct arrays with it element for element;
``milp_result`` solves the same model through ``milp``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._milp import _milp_iv

from repro.lp.formulation import _forbidden_pairs


def sparse_model(instance, integral=True):
    """``(objective, constraints, integrality, bounds)`` for ``milp``."""
    J, H, D = instance.num_services, instance.num_nodes, instance.dims
    sv, nd = instance.services, instance.nodes
    n_e, n_y = J * H, J * H
    n_vars = n_e + n_y + 1
    Y_idx = n_e + n_y

    objective = np.zeros(n_vars)
    objective[Y_idx] = -1.0

    constraints = []

    # Eq. 3
    rows = np.repeat(np.arange(J), H)
    cols = np.arange(n_e)
    a_place = sparse.csr_array(
        (np.ones(n_e), (rows, cols)), shape=(J, n_vars))
    constraints.append(LinearConstraint(a_place, lb=1.0, ub=1.0))

    # Eq. 4
    idx = np.arange(n_e)
    data = np.concatenate([np.ones(n_e), -np.ones(n_e)])
    rows = np.concatenate([idx, idx])
    cols = np.concatenate([n_e + idx, idx])
    a_link = sparse.csr_array((data, (rows, cols)), shape=(n_e, n_vars))
    constraints.append(LinearConstraint(a_link, lb=-np.inf, ub=0.0))

    # Eq. 5, pruned
    forbidden = _forbidden_pairs(instance)
    peak = sv.req_elem[:, None, :] + sv.need_elem[:, None, :]
    can_bind = peak > nd.elementary[None, :, :]
    can_bind &= ~forbidden[:, :, None]
    jj, hh, dd = np.nonzero(can_bind)
    if jj.size:
        n_rows = jj.size
        row_idx = np.arange(n_rows)
        data = np.concatenate([sv.req_elem[jj, dd], sv.need_elem[jj, dd]])
        rows = np.concatenate([row_idx, row_idx])
        cols = np.concatenate([jj * H + hh, n_e + jj * H + hh])
        a_elem = sparse.csr_array((data, (rows, cols)), shape=(n_rows, n_vars))
        ub = nd.elementary[hh, dd]
        constraints.append(LinearConstraint(a_elem, lb=-np.inf, ub=ub))

    # Eq. 6
    hh = np.repeat(np.arange(H), D)
    dd = np.tile(np.arange(D), H)
    n_rows = H * D
    row_idx = np.repeat(np.arange(n_rows), J)
    jj = np.tile(np.arange(J), n_rows)
    e_cols = jj * H + np.repeat(hh, J)
    y_cols = n_e + e_cols
    e_data = sv.req_agg[jj, np.repeat(dd, J)]
    y_data = sv.need_agg[jj, np.repeat(dd, J)]
    a_agg = sparse.csr_array(
        (np.concatenate([e_data, y_data]),
         (np.concatenate([row_idx, row_idx]),
          np.concatenate([e_cols, y_cols]))),
        shape=(n_rows, n_vars))
    constraints.append(
        LinearConstraint(a_agg, lb=-np.inf, ub=nd.aggregate[hh, dd]))

    # Eq. 7
    rows = np.concatenate([np.repeat(np.arange(J), H), np.arange(J)])
    cols = np.concatenate([n_e + np.arange(n_y), np.full(J, Y_idx)])
    data = np.concatenate([np.ones(n_y), -np.ones(J)])
    a_min = sparse.csr_array((data, (rows, cols)), shape=(J, n_vars))
    constraints.append(LinearConstraint(a_min, lb=0.0, ub=np.inf))

    # Eqs. 1-2, forbidden placements fixed to zero
    lb = np.zeros(n_vars)
    ub = np.ones(n_vars)
    fj, fh = np.nonzero(forbidden)
    ub[fj * H + fh] = 0.0
    ub[n_e + fj * H + fh] = 0.0
    bounds = Bounds(lb=lb, ub=ub)

    integrality = np.zeros(n_vars)
    if integral:
        integrality[:n_e] = 1.0
    return objective, constraints, integrality, bounds


def milp_arrays(instance, integral=True):
    """What ``milp`` passes to HiGHS for *instance*: a dict of the
    objective, integrality, column and row bounds and the CSC arrays."""
    objective, constraints, integrality, bounds = sparse_model(instance,
                                                               integral)
    (c, integrality, lb, ub, indptr, indices, data, b_l, b_u,
     _options) = _milp_iv(objective, integrality, bounds, constraints, None)
    return {"objective": c, "integrality": integrality,
            "col_lower": lb, "col_upper": ub, "row_lower": b_l,
            "row_upper": b_u, "a_start": indptr, "a_index": indices,
            "a_value": data}


def milp_result(instance, integral=True, time_limit=None):
    """``milp``'s result for *instance* (``x`` is ``None`` without a
    solution; ``status`` 2 is what the package raised as infeasible)."""
    objective, constraints, integrality, bounds = sparse_model(instance,
                                                               integral)
    options = None if time_limit is None else {"time_limit": time_limit}
    return milp(c=objective, constraints=constraints,
                integrality=integrality, bounds=bounds, options=options)
