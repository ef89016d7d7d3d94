"""MILP formulation of the placement problem (paper §3.1, Equations 1-7).

Columns (one vector ``x`` of ``2·J·H + 1`` variables)::

    x = [ e_00 .. e_{J-1,H-1} | y_00 .. y_{J-1,H-1} | Y ]

with ``e_jh ∈ {0,1}`` (service *j* placed on node *h*, column ``j·H + h``),
``y_jh ∈ [0,1]`` (yield of *j* on *h*, column ``J·H + j·H + h``) and ``Y``
the minimum yield (the last column).  The rows, in this block order:

* Eq. 3 — ``Σ_h e_jh = 1``, one row per service *j*;
* Eq. 4 — ``y_jh - e_jh ≤ 0``, one row per ``(j, h)`` in column order;
* Eq. 5 — ``e_jh r^e_jd + y_jh n^e_jd ≤ c^e_hd``, one row per
  ``(j, h, d)`` that can bind (see below), in ``(j, h, d)`` order;
* Eq. 6 — ``Σ_j (e_jh r^a_jd + y_jh n^a_jd) ≤ c^a_hd``, one row per
  ``(h, d)``, *h* major;
* Eq. 7 — ``Σ_h y_jh - Y ≥ 0``, one row per service *j*.

The objective maximizes ``Y``.

Two standard reductions keep the matrices small without changing the
feasible set:

* an Eq. 5 row is dropped when it cannot bind (``r^e_jd + n^e_jd ≤ c^e_hd``
  already holds with ``e = y = 1``);
* when a requirement alone cannot fit (``r^e_jd > c^e_hd`` or
  ``r^a_jd > c^a_hd``) service *j* can never be placed on node *h*;
  instead of an always-violated row we fix ``e_jh = y_jh = 0`` via column
  bounds, which also prunes the branch-and-bound tree.

The model is built in the form HiGHS takes it (``Highs::passModel``):
the matrix in compressed sparse columns with int32 starts and row
indices, each column's entries in ascending row order, a coefficient
that is zero kept as an explicit entry.  These are, element for element,
the arrays ``scipy.optimize.milp`` derives from the same model given as
``scipy.sparse`` blocks (``tests/lp/test_highs_model.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.exceptions import SolverError
from ..core.instance import ProblemInstance

__all__ = ["MilpFormulation", "build_formulation"]

#: HiGHS indexes rows, columns and nonzeros with 32-bit integers.
MAX_HIGHS_INDEX = int(np.iinfo(np.int32).max)


@dataclass
class MilpFormulation:
    """The model of one problem instance, as HiGHS takes it.

    HiGHS *minimizes*, so ``objective`` is ``-1`` at the ``Y`` column and
    ``0`` elsewhere.  Column *c*'s entries are ``a_index[a_start[c]:
    a_start[c + 1]]`` (rows) and the same slice of ``a_value``.
    ``integrality`` is 1 at the ``e`` columns of the MILP, else 0.
    """

    instance: ProblemInstance
    objective: np.ndarray    # (n,) float64
    col_lower: np.ndarray    # (n,) float64
    col_upper: np.ndarray    # (n,) float64
    row_lower: np.ndarray    # (m,) float64
    row_upper: np.ndarray    # (m,) float64
    a_start: np.ndarray      # (n + 1,) int32
    a_index: np.ndarray      # (nnz,) int32
    a_value: np.ndarray      # (nnz,) float64
    integrality: np.ndarray  # (n,) int32
    forbidden: np.ndarray    # (J, H) bool, True where e_jh is fixed to 0

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def num_rows(self) -> int:
        return self.row_lower.shape[0]

    def e_index(self, j: int, h: int) -> int:
        return j * self.instance.num_nodes + h

    def y_index(self, j: int, h: int) -> int:
        J, H = self.instance.num_services, self.instance.num_nodes
        return J * H + j * H + h

    @property
    def min_yield_index(self) -> int:
        J, H = self.instance.num_services, self.instance.num_nodes
        return 2 * J * H

    def split_solution(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Unpack a raw solver vector into ``(e, y, Y)`` with shapes (J, H)."""
        J, H = self.instance.num_services, self.instance.num_nodes
        e = x[: J * H].reshape(J, H)
        y = x[J * H: 2 * J * H].reshape(J, H)
        return e, y, float(x[2 * J * H])


def _forbidden_pairs(instance: ProblemInstance) -> np.ndarray:
    """(J, H) mask of placements whose *requirements* alone cannot fit.

    A placement is impossible when any elementary requirement exceeds the
    node's elementary capacity or any aggregate requirement exceeds the
    node's aggregate capacity (Eqs. 5-6 at ``y = 0``).
    """
    sv, nd = instance.services, instance.nodes
    # (J, H, D) broadcast comparisons; J*H*D is at most a few hundred
    # thousand entries for paper-scale instances.
    elem_bad = (sv.req_elem[:, None, :] > nd.elementary[None, :, :]).any(axis=2)
    agg_bad = (sv.req_agg[:, None, :] > nd.aggregate[None, :, :]).any(axis=2)
    return elem_bad | agg_bad


def build_formulation(instance: ProblemInstance, integral: bool = True
                      ) -> MilpFormulation:
    """Build the Eq. 1-7 formulation for *instance*.

    With ``integral=False`` the ``e`` variables are continuous in [0, 1]
    (the rational relaxation of §3.2).  Raises :class:`SolverError` when
    the model has more rows or nonzeros than HiGHS can index.
    """
    J, H, D = instance.num_services, instance.num_nodes, instance.dims
    sv, nd = instance.services, instance.nodes
    n_e = J * H
    n_vars = 2 * n_e + 1

    forbidden = _forbidden_pairs(instance)
    # The Eq. 5 rows: (j, h, d) where e = y = 1 would overflow c^e_hd,
    # unless the placement is forbidden outright.
    can_bind = sv.req_elem[:, None, :] + sv.need_elem[:, None, :] \
        > nd.elementary[None, :, :]
    can_bind &= ~forbidden[:, :, None]
    flat_bind = can_bind.reshape(-1)
    n_elem = int(np.count_nonzero(flat_bind))
    # Every e and y column has its Eq. 3 or Eq. 7 entry, its Eq. 4 entry,
    # D Eq. 6 entries and one per Eq. 5 row of its pair; Y has J.  Every
    # column, and every row once J >= 1, has an entry, so nnz bounds the
    # row and column counts too.
    nnz = 2 * n_e * (2 + D) + 2 * n_elem + J
    if nnz > MAX_HIGHS_INDEX:
        raise SolverError(f"the model has {nnz} nonzeros; HiGHS indexes at "
                          f"most {MAX_HIGHS_INDEX}")

    # First row of each block after Eq. 3's J rows.
    link0 = J
    elem0 = link0 + n_e
    agg0 = elem0 + n_elem
    min0 = agg0 + H * D
    n_rows = min0 + J

    # Each e_jh (and y_jh) column as 2 + 2D slots in row order, the Eq. 5
    # slots kept only where the row exists.
    # e: Eq. 3 | Eq. 4 | Eq. 5 (D) | Eq. 6 (D)
    # y: Eq. 4 | Eq. 5 (D) | Eq. 6 (D) | Eq. 7
    pair = np.arange(n_e).reshape(J, H)
    elem_rows = (elem0 - 1 + np.cumsum(flat_bind)).reshape(J, H, D)
    agg_rows = agg0 + np.arange(H * D).reshape(H, D)
    width = 2 + 2 * D
    rows = np.empty((2, J, H, width), dtype=np.int64)
    values = np.empty((2, J, H, width))
    keep = np.ones((2, J, H, width), dtype=bool)
    e_rows, y_rows = rows
    e_vals, y_vals = values
    e_rows[..., 0] = np.arange(J)[:, None]
    e_rows[..., 1] = link0 + pair
    e_rows[..., 2:2 + D] = elem_rows
    e_rows[..., 2 + D:] = agg_rows
    e_vals[..., 0] = 1.0
    e_vals[..., 1] = -1.0
    e_vals[..., 2:2 + D] = sv.req_elem[:, None, :]
    e_vals[..., 2 + D:] = sv.req_agg[:, None, :]
    keep[0, ..., 2:2 + D] = can_bind
    y_rows[..., 0] = link0 + pair
    y_rows[..., 1:1 + D] = elem_rows
    y_rows[..., 1 + D:width - 1] = agg_rows
    y_rows[..., width - 1] = min0 + np.arange(J)[:, None]
    y_vals[..., 0] = 1.0
    y_vals[..., 1:1 + D] = sv.need_elem[:, None, :]
    y_vals[..., 1 + D:width - 1] = sv.need_agg[:, None, :]
    y_vals[..., width - 1] = 1.0
    keep[1, ..., 1:1 + D] = can_bind

    a_index = np.empty(nnz, dtype=np.int32)
    a_value = np.empty(nnz)
    a_index[:nnz - J] = rows[keep]
    a_value[:nnz - J] = values[keep]
    a_index[nnz - J:] = min0 + np.arange(J)
    a_value[nnz - J:] = -1.0
    per_col = np.empty(n_vars, dtype=np.int32)
    per_col[:n_e] = 2 + D + can_bind.sum(axis=2).reshape(-1)
    per_col[n_e:2 * n_e] = per_col[:n_e]
    per_col[-1] = J
    a_start = np.zeros(n_vars + 1, dtype=np.int32)
    np.cumsum(per_col, dtype=np.int32, out=a_start[1:])

    row_lower = np.full(n_rows, -np.inf)
    row_upper = np.empty(n_rows)
    row_lower[:J] = 1.0
    row_upper[:J] = 1.0
    row_upper[link0:elem0] = 0.0
    row_upper[elem0:agg0] = np.broadcast_to(nd.elementary, (J, H, D))[can_bind]
    row_upper[agg0:min0] = nd.aggregate.reshape(-1)
    row_lower[min0:] = 0.0
    row_upper[min0:] = np.inf

    # Bounds (Eqs. 1-2) with forbidden-placement fixing.
    objective = np.zeros(n_vars)
    objective[-1] = -1.0  # maximize Y
    col_lower = np.zeros(n_vars)
    col_upper = np.ones(n_vars)
    out = forbidden.reshape(-1)
    col_upper[:n_e][out] = 0.0           # e_jh = 0
    col_upper[n_e:2 * n_e][out] = 0.0    # y_jh = 0 (implied; tightens presolve)
    integrality = np.zeros(n_vars, dtype=np.int32)
    if integral:
        integrality[:n_e] = 1

    return MilpFormulation(
        instance=instance,
        objective=objective,
        col_lower=col_lower,
        col_upper=col_upper,
        row_lower=row_lower,
        row_upper=row_upper,
        a_start=a_start,
        a_index=a_index,
        a_value=a_value,
        integrality=integrality,
        forbidden=forbidden,
    )
