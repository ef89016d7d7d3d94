"""Shared incremental placement-state mutation helpers.

Both consumers of live placement state — the :class:`DynamicSimulator`
(discrete-time simulation) and the online allocation service
(:mod:`repro.service`) — maintain the same three pieces of state between
solver invocations: a per-descriptor node assignment, the aggregate
*requirement* loads those assignments put on each node, and the
"requirement fits one element" feasibility table of the platform that is
up.  This module owns the mutation logic so the two layers cannot drift:
departures subtract their demand, newcomers go through the kernel
backend's best-fit
(:meth:`~repro.kernels.api.KernelBackend.incremental_best_fit`), and a
full re-solve rebuilds everything from the assignment array.

Newcomers are admitted at yield 0 — only the rigid requirements count
for feasibility; the fluid needs then share whatever headroom the
placement left (the per-node closed-form max-min of
:func:`repro.core.allocation.max_min_yield_on_node`).
"""

from __future__ import annotations

import numpy as np

from ..core.node import NodeArray
from ..core.resources import STRICT_FIT_ATOL
from ..kernels import get_backend

__all__ = ["INCREMENTAL_TOL", "masked_fit_tables", "rebuild_loads",
           "best_fit_newcomers"]

#: Fit slack of the incremental (non-epoch) best-fit placements —
#: the seed-faithful strict slack (see ``core.resources``).
INCREMENTAL_TOL = STRICT_FIT_ATOL


def masked_fit_tables(req_elem: np.ndarray, nodes: NodeArray,
                      avail: np.ndarray, scale: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Fit tables for the platform that is up (node churn, capacity
    scaling).

    Returns the ``(N, H)`` elementary-fit table — row *i* marks the up
    nodes whose *scaled* elementary capacity covers descriptor *i*'s
    rigid elementary requirements in every dimension, the yield-0
    admission precondition — and the ``(H, D)`` aggregate
    capacity-with-slack array, where down nodes get −1 so no load can
    ever fit them.  Both feed straight into :func:`best_fit_newcomers`,
    which keeps survivor placements intact and only slots the
    displaced/new services into the platform that is actually up.  With
    every node up at scale 1.0 these are the whole platform's tables:
    ``x * 1.0 == x`` and AND with all-true changes nothing.
    """
    scaled_elem = nodes.elementary * scale[:, None]
    elem_fit = (req_elem[:, None, :]
                <= (scaled_elem + INCREMENTAL_TOL)[None, :, :]).all(axis=2)
    elem_fit &= avail[None, :]
    cap_tol = nodes.aggregate * scale[:, None] + INCREMENTAL_TOL
    cap_tol[~avail] = -1.0
    return elem_fit, cap_tol


def rebuild_loads(assigned: np.ndarray, req_agg: np.ndarray,
                  nodes: NodeArray) -> np.ndarray:
    """``(H, D)`` aggregate requirement loads implied by *assigned*.

    *assigned* maps each descriptor to a node index (−1 = not placed);
    *req_agg* is the matching ``(N, D)`` aggregate-requirement array.
    """
    loads = np.zeros_like(nodes.aggregate)
    placed = np.flatnonzero(assigned >= 0)
    if placed.size:
        np.add.at(loads, assigned[placed], req_agg[placed])
    return loads


def best_fit_newcomers(req_agg: np.ndarray, elem_fit: np.ndarray,
                       loads: np.ndarray, nodes: NodeArray,
                       cap_tol: np.ndarray) -> np.ndarray:
    """Place newcomers one by one via the kernel backend's best-fit.

    *req_agg* and *elem_fit* carry only the newcomers' rows; *elem_fit*
    and *cap_tol* come from :func:`masked_fit_tables`.  *loads* is the
    live ``(H, D)`` requirement-load array and is **updated in place**
    for every descriptor that fits.  Returns the chosen node per
    newcomer (−1 = nothing fits; the caller decides whether that means
    "pending" or "rejected").
    """
    return get_backend().incremental_best_fit(
        req_agg, elem_fit, loads, nodes.aggregate, cap_tol)
